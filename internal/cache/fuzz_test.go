package cache

import "testing"

// refLine is the reference model's unpacked line.
type refLine struct {
	tag   uint64
	valid bool
	age   uint32
}

// refArray is the reference model for Array: a dense table of unpacked
// lines with every set allocated up front, under the same true-LRU
// policy.
type refArray struct {
	sets           [][]refLine
	mask           uint64
	tick           uint32
	accesses, hits uint64
}

func newRefArray(nsets, ways int) *refArray {
	r := &refArray{sets: make([][]refLine, nsets), mask: uint64(nsets - 1)}
	for i := range r.sets {
		r.sets[i] = make([]refLine, ways)
	}
	return r
}

func (r *refArray) set(addr uint64) []refLine { return r.sets[(addr/BlockSize)&r.mask] }

func (r *refArray) lookup(addr uint64) bool {
	r.accesses++
	set := r.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == BlockAddr(addr) {
			r.tick++
			set[i].age = r.tick
			r.hits++
			return true
		}
	}
	return false
}

func (r *refArray) contains(addr uint64) bool {
	for _, l := range r.set(addr) {
		if l.valid && l.tag == BlockAddr(addr) {
			return true
		}
	}
	return false
}

func (r *refArray) insert(addr uint64) (uint64, bool) {
	set := r.set(addr)
	r.tick++
	vi := 0
	for i := range set {
		if set[i].valid && set[i].tag == BlockAddr(addr) {
			set[i].age = r.tick
			return 0, false
		}
		if !set[i].valid {
			vi = i
		} else if set[vi].valid && set[i].age < set[vi].age {
			vi = i
		}
	}
	victim, evicted := set[vi].tag, set[vi].valid
	if !evicted {
		victim = 0
	}
	set[vi] = refLine{tag: BlockAddr(addr), valid: true, age: r.tick}
	return victim, evicted
}

func (r *refArray) invalidate(addr uint64) bool {
	set := r.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == BlockAddr(addr) {
			set[i].valid = false
			return true
		}
	}
	return false
}

// FuzzCacheArray runs random Lookup/Contains/Insert/Invalidate sequences
// against Array and the dense reference, comparing every result, the
// access counters, and every set's lines (tags, valid bits, LRU ages)
// after each operation. The header byte picks the geometry: 1-128 sets
// of 1-8 ways. Each following (op, a, b) triple addresses set a with
// one of twelve tags chosen by b, so sets fill, evict, and are probed
// before they were ever filled.
func FuzzCacheArray(f *testing.F) {
	f.Add([]byte{0x0a, 2, 0, 0, 0, 0, 0, 2, 0, 12, 2, 0, 24, 0, 0, 0, 3, 0, 12, 1, 0, 24})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nsets, ways := 1<<(data[0]&7), 1<<(data[0]>>3&3)
		a := NewArray(Config{Size: nsets * ways * BlockSize, Ways: ways})
		ref := newRefArray(nsets, ways)
		for i := 1; i+2 < len(data); i += 3 {
			op, sa, sb := data[i], data[i+1], data[i+2]
			// Tag tg picks one of four low blocks and one of three
			// values of the high address word, so blocks alike in
			// their low 32 bits meet in one set.
			set, tg := uint64(sa)&uint64(nsets-1), uint64(sb%12)
			addr := ((tg/3)*uint64(nsets)+set)*BlockSize | (tg%3)<<32 + uint64(sb%8)*8
			switch op % 4 {
			case 0:
				if got, want := a.Lookup(addr), ref.lookup(addr); got != want {
					t.Fatalf("op %d: Lookup(%#x) = %v, reference %v", i/3, addr, got, want)
				}
			case 1:
				if got, want := a.Contains(addr), ref.contains(addr); got != want {
					t.Fatalf("op %d: Contains(%#x) = %v, reference %v", i/3, addr, got, want)
				}
			case 2:
				v, ev := a.Insert(addr)
				rv, rev := ref.insert(addr)
				if v != rv || ev != rev {
					t.Fatalf("op %d: Insert(%#x) = (%#x, %v), reference (%#x, %v)", i/3, addr, v, ev, rv, rev)
				}
			case 3:
				if got, want := a.Invalidate(addr), ref.invalidate(addr); got != want {
					t.Fatalf("op %d: Invalidate(%#x) = %v, reference %v", i/3, addr, got, want)
				}
			}
			if a.Accesses != ref.accesses || a.Hits != ref.hits || a.tick != ref.tick {
				t.Fatalf("op %d: accesses/hits/tick %d/%d/%d, reference %d/%d/%d", i/3,
					a.Accesses, a.Hits, a.tick, ref.accesses, ref.hits, ref.tick)
			}
			for s := range ref.sets {
				got := a.sets.Get(uint64(s))
				if len(got) == 0 {
					got = make([]line, ways) // never filled: all invalid
				}
				for w, want := range ref.sets[s] {
					l := &got[w]
					if valid := l.valid(); valid != want.valid || l.tag()&^1 != want.tag || l.age != want.age {
						t.Fatalf("op %d: set %d way %d = valid %v block %#x age %d, reference %+v",
							i/3, s, w, valid, l.tag()&^1, l.age, want)
					}
				}
			}
		}
	})
}
