package bpred

import "testing"

// refBTB is the reference model for the BTB: dense tag, target and LRU
// arrays with every set allocated up front, under the same policy.
type refBTB struct {
	tags, targets []uint64
	lru           []uint8
	sets, ways    int
}

func newRefBTB(sets, ways int) *refBTB {
	return &refBTB{tags: make([]uint64, sets*ways), targets: make([]uint64, sets*ways),
		lru: make([]uint8, sets*ways), sets: sets, ways: ways}
}

func (r *refBTB) age(base, w int) {
	r.lru[base+w] = 0
	for o := 0; o < r.ways; o++ {
		if o != w && r.lru[base+o] < 255 {
			r.lru[base+o]++
		}
	}
}

func (r *refBTB) predict(pc uint64) (uint64, bool) {
	base := pcIndex(pc, r.sets) * r.ways
	for w := 0; w < r.ways; w++ {
		if r.tags[base+w] == pc|1 {
			r.age(base, w)
			return r.targets[base+w], true
		}
	}
	return 0, false
}

func (r *refBTB) update(pc, target uint64) {
	base := pcIndex(pc, r.sets) * r.ways
	victim := 0
	for w := 0; w < r.ways; w++ {
		if r.tags[base+w] == pc|1 {
			victim = w
			break
		}
		if r.lru[base+w] > r.lru[base+victim] {
			victim = w
		}
	}
	r.tags[base+victim] = pc | 1
	r.targets[base+victim] = target
	r.age(base, victim)
}

// FuzzBTB runs random PredictTarget/UpdateTarget sequences against the
// predictor's BTB and the dense reference, comparing every hit and
// target and every set's ways (tags, targets, LRU counters) after each
// operation. The header byte picks the geometry: 1-128 sets of 1-8
// ways. Each following (op, a, b) triple addresses set a with one of
// twelve tags chosen by b, so sets fill, evict, saturate their LRU
// counters, and are predicted before any install.
func FuzzBTB(f *testing.F) {
	f.Add([]byte{0x0a, 0, 0, 0, 1, 0, 0, 1, 0, 12, 0, 0, 0, 0, 1, 0, 1, 1, 24})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sets, ways := 1<<(data[0]&7), 1<<(data[0]>>3&3)
		p := New(Config{BimodalEntries: 4, GshareEntries: 4, SelectorEntries: 4,
			BTBEntries: sets * ways, BTBWays: ways, RASEntries: 4})
		ref := newRefBTB(sets, ways)
		for i := 1; i+2 < len(data); i += 3 {
			op, sa, sb := data[i], data[i+1], data[i+2]
			set := uint64(sa) & uint64(sets-1)
			pc := (uint64(sb%12)*uint64(sets) + set) << 2
			if op%2 == 0 {
				got, hit := p.PredictTarget(pc)
				want, rhit := ref.predict(pc)
				if got != want || hit != rhit {
					t.Fatalf("op %d: PredictTarget(%#x) = (%#x, %v), reference (%#x, %v)", i/3, pc, got, hit, want, rhit)
				}
			} else {
				target := uint64(op)<<16 | uint64(sa)<<8 | uint64(sb)
				p.UpdateTarget(pc, target)
				ref.update(pc, target)
			}
			for s := 0; s < sets; s++ {
				got := p.btb.Get(uint64(s))
				if len(got) == 0 {
					got = make([]btbWay, ways) // never installed: no match
				}
				for w := 0; w < ways; w++ {
					k := s*ways + w
					want := btbWay{tag: ref.tags[k], target: ref.targets[k], lru: ref.lru[k]}
					if got[w] != want {
						t.Fatalf("op %d: set %d way %d = %+v, reference %+v", i/3, s, w, got[w], want)
					}
				}
			}
		}
	})
}
