// Differential fuzz targets for the handle-addressed queue rings. Each
// target decodes its input into a random program-order history —
// dispatches, address and data resolution, searches, head commits,
// squashes, invalidations — and replays it against the ring and against
// a reference model that keeps its entries in a plain slice and finds
// them by scanning tags, the way the queues worked before they became
// rings. Every search result, every squash verdict and every counter
// must agree after every step. Seeds under testdata/fuzz force ring
// wraparound and a squash across the wrap point; plain `go test` runs
// them, and `go test -fuzz` explores further.

package lsq

import (
	"reflect"
	"testing"

	"vbmo/internal/cache"
	"vbmo/internal/trace"
)

// fuzzOps walks data as a header byte followed by three-byte
// operations (opcode, a, b).
func fuzzOps(data []byte, step func(op, a, b byte)) {
	for i := 1; i+2 < len(data); i += 3 {
		step(data[i], data[i+1], data[i+2])
	}
}

// refStore is one store in the reference store queue.
type refStore struct {
	tag            int64
	pc, addr, data uint64
	addrOK, dataOK bool
}

// refStoreQueue is the reference model: program-order slice, entries
// found by tag, searches from the young end skipping younger stores.
type refStoreQueue struct {
	s          []refStore
	cap        int
	l1Size     int
	l2Latency  int
	filter     *BloomFilter
	unresolved int

	Searches, L2Searches, L2Filtered uint64
}

func (q *refStoreQueue) find(tag int64) int {
	for i := range q.s {
		if q.s[i].tag == tag {
			return i
		}
	}
	return -1
}

func (q *refStoreQueue) insert(tag int64, pc uint64) bool {
	if len(q.s) >= q.cap {
		return false
	}
	q.s = append(q.s, refStore{tag: tag, pc: pc})
	q.unresolved++
	return true
}

func (q *refStoreQueue) setAddr(tag int64, addr uint64) {
	i := q.find(tag)
	if !q.s[i].addrOK {
		q.unresolved--
		if q.filter != nil {
			q.filter.Insert(addr &^ 7)
		}
	}
	q.s[i].addr, q.s[i].addrOK = addr, true
}

func (q *refStoreQueue) search(addr uint64, loadTag int64) SearchResult {
	q.Searches++
	addr &^= 7
	var r SearchResult
	n := len(q.s)
	l1Boundary := -1
	if q.l1Size > 0 {
		l1Boundary = n - q.l1Size
	}
	for i := n - 1; i >= 0; i-- {
		if q.l1Size > 0 && i < l1Boundary {
			if q.unresolved == 0 && !q.filter.MayContain(addr) {
				q.L2Filtered++
				return r
			}
			q.L2Searches++
			l1Boundary = -1
		}
		e := q.s[i]
		if e.tag >= loadTag {
			continue
		}
		if !e.addrOK {
			r.UnresolvedOlder = true
			continue
		}
		if e.addr&^7 == addr {
			r.Match, r.MatchTag, r.MatchPC = true, e.tag, e.pc
			r.Data, r.DataReady = e.data, e.dataOK
			if q.l1Size > 0 && i < n-q.l1Size {
				r.Latency = q.l2Latency
			}
			break
		}
	}
	return r
}

func (q *refStoreQueue) unresolvedBefore(tag int64) bool {
	for _, e := range q.s {
		if e.tag >= tag {
			break
		}
		if !e.addrOK {
			return true
		}
	}
	return false
}

func (q *refStoreQueue) drop(e refStore) {
	if !e.addrOK {
		q.unresolved--
	} else if q.filter != nil {
		q.filter.Remove(e.addr &^ 7)
	}
}

func (q *refStoreQueue) squash(fromTag int64) {
	for len(q.s) > 0 && q.s[len(q.s)-1].tag >= fromTag {
		q.drop(q.s[len(q.s)-1])
		q.s = q.s[:len(q.s)-1]
	}
}

// fuzzInst is a resident instruction of the fuzzed history: its tag
// and the handle (stores, loads) or store colour (loads in the store
// queue target) the pipeline would hold.
type fuzzInst struct {
	tag, h int64
}

// dropFrom removes every instruction with tag >= fromTag.
func dropFrom(s []fuzzInst, fromTag int64) []fuzzInst {
	for len(s) > 0 && s[len(s)-1].tag >= fromTag {
		s = s[:len(s)-1]
	}
	return s
}

// pickSquashTag picks a squash point among the resident tags (or just
// past the youngest), so squashes usually cut something.
func pickSquashTag(a byte, next int64, lists ...[]fuzzInst) int64 {
	var tags []int64
	for _, l := range lists {
		for _, in := range l {
			tags = append(tags, in.tag)
		}
	}
	if len(tags) == 0 || int(a)%(len(tags)+1) == len(tags) {
		return next
	}
	return tags[int(a)%(len(tags)+1)]
}

// fuzzAddr maps a byte onto a small address space of 4-byte steps, so
// word-granularity matches and near misses are both common.
func fuzzAddr(b byte) uint64 { return 0x1000 + uint64(b%16)*4 }

func FuzzStoreQueue(f *testing.F) {
	f.Add([]byte{0x03, 0, 1, 0, 1, 0, 0, 2, 0, 3, 3, 0, 9, 4, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]&7)
		q := NewStoreQueue(capacity)
		ref := &refStoreQueue{cap: capacity}
		if data[0]&0x80 != 0 {
			l1 := 1 + int(data[0]>>3&3)
			q.EnableTwoLevel(l1, 3, 64)
			ref.l1Size, ref.l2Latency, ref.filter = l1, 3, NewBloomFilter(64, 2)
		}
		var stores, loads []fuzzInst
		next := int64(0)
		fuzzOps(data, func(op, a, b byte) {
			switch op % 9 {
			case 0: // dispatch a store
				h, ok := q.Insert(next, uint64(a))
				if ok != ref.insert(next, uint64(a)) {
					t.Fatalf("Insert(%d) ok=%v, reference disagrees", next, ok)
				}
				if ok {
					stores = append(stores, fuzzInst{next, h})
				}
				next++
			case 1: // dispatch a load: it records its store colour
				loads = append(loads, fuzzInst{next, q.NextHandle()})
				next++
			case 2: // store agen
				if len(stores) > 0 {
					s := stores[int(a)%len(stores)]
					q.SetAddr(s.h, s.tag, fuzzAddr(b))
					ref.setAddr(s.tag, fuzzAddr(b))
				}
			case 3: // store data capture
				if len(stores) > 0 {
					s := stores[int(a)%len(stores)]
					q.SetData(s.h, s.tag, uint64(b))
					i := ref.find(s.tag)
					ref.s[i].data, ref.s[i].dataOK = uint64(b), true
				}
			case 4: // a load probes for forwarding
				if len(loads) > 0 {
					l := loads[int(a)%len(loads)]
					got, want := q.Search(fuzzAddr(b), l.h), ref.search(fuzzAddr(b), l.tag)
					if got != want {
						t.Fatalf("Search(%#x) by load %d: %+v, reference %+v", fuzzAddr(b), l.tag, got, want)
					}
				}
			case 5: // commit the oldest instruction
				switch {
				case len(stores) > 0 && (len(loads) == 0 || stores[0].tag < loads[0].tag):
					q.Remove(stores[0].tag)
					ref.drop(ref.s[0])
					ref.s = ref.s[1:]
					stores = stores[1:]
				case len(loads) > 0:
					loads = loads[1:]
				}
			case 6: // squash
				from := pickSquashTag(a, next, stores, loads)
				q.Squash(from)
				ref.squash(from)
				stores, loads = dropFrom(stores, from), dropFrom(loads, from)
			case 7: // the simple predictor's wait-for-all-agens check
				if len(loads) > 0 {
					l := loads[int(a)%len(loads)]
					if got, want := q.UnresolvedBefore(l.h), ref.unresolvedBefore(l.tag); got != want {
						t.Fatalf("UnresolvedBefore by load %d: %v, reference %v", l.tag, got, want)
					}
				}
			case 8: // the store-set predictor's lookup by tag
				tag := next - 1 - int64(b%8)
				if len(stores) > 0 && a&1 == 0 {
					tag = stores[int(b)%len(stores)].tag
				}
				got, ok := q.Entry(tag)
				i := ref.find(tag)
				if ok != (i >= 0) {
					t.Fatalf("Entry(%d) found=%v, reference %v", tag, ok, i >= 0)
				}
				if ok {
					e := ref.s[i]
					want := StoreEntry{Tag: e.tag, PC: e.pc, Addr: e.addr, AddrValid: e.addrOK, Data: e.data, DataValid: e.dataOK}
					if got != want {
						t.Fatalf("Entry(%d) = %+v, reference %+v", tag, got, want)
					}
				}
			}
			if q.Len() != len(ref.s) || q.Full() != (len(ref.s) >= capacity) {
				t.Fatalf("Len=%d Full=%v, reference %d", q.Len(), q.Full(), len(ref.s))
			}
			oldest := int64(-1)
			if len(ref.s) > 0 {
				oldest = ref.s[0].tag
			}
			if q.OldestTag() != oldest || q.HasOlderThan(next) != (oldest >= 0) {
				t.Fatalf("OldestTag=%d HasOlderThan=%v, reference oldest %d", q.OldestTag(), q.HasOlderThan(next), oldest)
			}
			if q.Searches != ref.Searches || q.L2Searches != ref.L2Searches || q.L2Filtered != ref.L2Filtered {
				t.Fatalf("counters searches/l2/filtered = %d/%d/%d, reference %d/%d/%d",
					q.Searches, q.L2Searches, q.L2Filtered, ref.Searches, ref.L2Searches, ref.L2Filtered)
			}
		})
	})
}

// refLoadQueue is the reference associative load queue: program-order
// slice, entries found by tag, every search a full scan.
type refLoadQueue struct {
	mode  Mode
	s     []LoadEntry
	cap   int
	bloom *BloomFilter
	marks []int64 // tags of hybrid snoop marks, in emission order

	Searches, SearchedEntries                 uint64
	InvalSquashes, RAWSquashes, IssueSquashes uint64
	BloomFiltered                             uint64
}

func (q *refLoadQueue) find(tag int64) *LoadEntry {
	for i := range q.s {
		if q.s[i].Tag == tag {
			return &q.s[i]
		}
	}
	return nil
}

func (q *refLoadQueue) countSearch() {
	q.Searches++
	q.SearchedEntries += uint64(len(q.s))
}

func (q *refLoadQueue) onIssue(tag int64, addr uint64, forwardTag int64) (Squash, bool) {
	e := q.find(tag)
	e.Addr, e.Issued, e.ForwardTag = addr&^7, true, forwardTag
	if q.bloom != nil {
		q.bloom.Insert(cache.BlockAddr(addr))
	}
	if q.mode == Snooping {
		return Squash{}, false
	}
	q.countSearch()
	for _, le := range q.s {
		if le.Tag <= tag || !le.Issued || le.Addr != e.Addr || (q.mode == Hybrid && !le.Marked) {
			continue
		}
		q.IssueSquashes++
		return Squash{Tag: le.Tag, PC: le.PC}, true
	}
	return Squash{}, false
}

func (q *refLoadQueue) onStoreAgen(addr uint64, storeTag int64) (Squash, bool) {
	if q.bloom != nil && !q.bloom.MayContain(cache.BlockAddr(addr)) {
		q.BloomFiltered++
		return Squash{}, false
	}
	q.countSearch()
	addr &^= 7
	for _, le := range q.s {
		if le.Tag <= storeTag || !le.Issued || le.Addr != addr || le.ForwardTag >= storeTag {
			continue
		}
		q.RAWSquashes++
		return Squash{Tag: le.Tag, PC: le.PC}, true
	}
	return Squash{}, false
}

func (q *refLoadQueue) onInvalidation(block uint64, commitTag int64) (Squash, bool) {
	if q.mode == Insulated {
		return Squash{}, false
	}
	if q.bloom != nil && !q.bloom.MayContain(cache.BlockAddr(block)) {
		q.BloomFiltered++
		return Squash{}, false
	}
	q.countSearch()
	for i := range q.s {
		le := &q.s[i]
		if !le.Issued || cache.BlockAddr(le.Addr) != cache.BlockAddr(block) || le.Tag == commitTag {
			continue
		}
		if q.mode == Hybrid {
			le.Marked = true
			q.marks = append(q.marks, le.Tag)
			continue
		}
		q.InvalSquashes++
		return Squash{Tag: le.Tag, PC: le.PC}, true
	}
	return Squash{}, false
}

func (q *refLoadQueue) unfilter(e LoadEntry) {
	if q.bloom != nil && e.Issued {
		q.bloom.Remove(cache.BlockAddr(e.Addr))
	}
}

// fuzzBlockAddr maps a byte onto addresses spread over a few cache
// blocks, so invalidations hit several loads and miss others.
func fuzzBlockAddr(b byte) uint64 { return 0x4000 + uint64(b%8)*24 }

func FuzzAssocLoadQueue(f *testing.F) {
	f.Add([]byte{0x13, 0, 0, 0, 0, 0, 0, 1, 0, 3, 1, 1, 3, 4, 0, 2, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]&7)
		mode := Mode(int(data[0]>>3) % 3)
		q := NewAssocLoadQueue(mode, capacity)
		ref := &refLoadQueue{mode: mode, cap: capacity}
		if data[0]&0x80 != 0 {
			q.EnableBloom(64, 2)
			ref.bloom = NewBloomFilter(64, 2)
		}
		var marks []int64
		q.Emit = func(kind trace.Kind, tag int64, pc, addr uint64) {
			if kind != trace.KLQMark {
				t.Fatalf("unexpected queue event %v", kind)
			}
			marks = append(marks, tag)
		}
		var loads []fuzzInst
		next := int64(0)
		fuzzOps(data, func(op, a, b byte) {
			var got, want Squash
			var gotOK, wantOK bool
			switch op % 7 {
			case 0: // dispatch a load
				h, ok := q.Insert(next, uint64(a))
				wantIns := len(ref.s) < capacity
				if wantIns {
					ref.s = append(ref.s, LoadEntry{Tag: next, PC: uint64(a), ForwardTag: -1})
				}
				if ok != wantIns {
					t.Fatalf("Insert(%d) ok=%v, reference %v", next, ok, wantIns)
				}
				if ok {
					loads = append(loads, fuzzInst{next, h})
				}
				next++
			case 1: // dispatch a store: it only takes a tag
				next++
			case 2: // a load issues, forwarding from an older tag or from the cache
				if len(loads) > 0 {
					l := loads[int(a)%len(loads)]
					fwd := int64(-1)
					if b&0x80 != 0 {
						fwd = l.tag - 1 - int64(b>>4&7)
					}
					got, gotOK = q.OnIssue(l.h, l.tag, fuzzBlockAddr(b), fwd)
					want, wantOK = ref.onIssue(l.tag, fuzzBlockAddr(b), fwd)
				}
			case 3: // a store's address resolves
				tag := next - 1 - int64(a%8)
				got, gotOK = q.OnStoreAgen(fuzzBlockAddr(b), tag)
				want, wantOK = ref.onStoreAgen(fuzzBlockAddr(b), tag)
			case 4: // an external invalidation, with the ROB head at a resident load or elsewhere
				commit := next - 1 - int64(a%8)
				if len(loads) > 0 && a&0x80 != 0 {
					commit = loads[0].tag
				}
				block := cache.BlockAddr(fuzzBlockAddr(b))
				got, gotOK = q.OnInvalidation(block, commit)
				want, wantOK = ref.onInvalidation(block, commit)
			case 5: // the oldest load commits
				if len(loads) > 0 {
					q.Remove(loads[0].tag)
					ref.unfilter(ref.s[0])
					ref.s = ref.s[1:]
					loads = loads[1:]
				}
			case 6: // squash
				from := pickSquashTag(a, next, loads)
				q.Squash(from)
				for len(ref.s) > 0 && ref.s[len(ref.s)-1].Tag >= from {
					ref.unfilter(ref.s[len(ref.s)-1])
					ref.s = ref.s[:len(ref.s)-1]
				}
				loads = dropFrom(loads, from)
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("op %d: squash verdict %+v/%v, reference %+v/%v", op%7, got, gotOK, want, wantOK)
			}
			if q.Len() != len(ref.s) || q.Full() != (len(ref.s) >= capacity) {
				t.Fatalf("Len=%d Full=%v, reference %d", q.Len(), q.Full(), len(ref.s))
			}
			gotC := [...]uint64{q.Searches, q.SearchedEntries, q.InvalSquashes, q.RAWSquashes, q.IssueSquashes, q.BloomFiltered}
			wantC := [...]uint64{ref.Searches, ref.SearchedEntries, ref.InvalSquashes, ref.RAWSquashes, ref.IssueSquashes, ref.BloomFiltered}
			if gotC != wantC {
				t.Fatalf("counters searches/entries/inval/raw/issue/bloom = %v, reference %v", gotC, wantC)
			}
			if !reflect.DeepEqual(marks, ref.marks) {
				t.Fatalf("hybrid marks %v, reference %v", marks, ref.marks)
			}
		})
	})
}
