// Differential fuzz target for the handle-addressed FIFO load queue.
// The input decodes into a random history of dispatches, premature
// issues (which write through Find's pointer), head commits and
// squashes, replayed against the ring and against a reference model
// that keeps its entries in a plain slice and finds them by scanning
// tags, the way the queue worked before it became a ring. Seeds under
// testdata/fuzz force ring wraparound and a squash across the wrap
// point; plain `go test` runs them.

package core

import "testing"

type fifoLoad struct{ tag, h int64 }

func FuzzFIFOQueue(f *testing.F) {
	f.Add([]byte{0x03, 0, 1, 0, 2, 0, 3, 1, 0, 4, 1, 0, 0, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]&7)
		q := NewFIFOQueue(capacity)
		var ref []FIFOEntry
		refFind := func(tag int64) *FIFOEntry {
			for i := range ref {
				if ref[i].Tag == tag {
					return &ref[i]
				}
			}
			t.Fatalf("reference lost load %d", tag)
			return nil
		}
		var loads []fifoLoad
		next := int64(0)
		for i := 1; i+1 < len(data); i += 2 {
			op, a := data[i], data[i+1]
			switch op % 5 {
			case 0: // dispatch a load
				h, ok := q.Insert(next, uint64(a))
				wantOK := len(ref) < capacity
				if ok != wantOK {
					t.Fatalf("Insert(%d) ok=%v, reference %v", next, ok, wantOK)
				}
				if ok {
					ref = append(ref, FIFOEntry{Tag: next, PC: uint64(a)})
					loads = append(loads, fifoLoad{next, h})
				}
				next++
			case 1: // a store takes a tag
				next++
			case 2: // a load issues: the pipeline writes through Find
				if len(loads) > 0 {
					l := loads[int(a)%len(loads)]
					for _, e := range []*FIFOEntry{q.Find(l.h, l.tag), refFind(l.tag)} {
						e.Addr, e.Value, e.Issued = uint64(a)*8, uint64(a)^0x5a, true
						e.NUS, e.Reordered = a&1 != 0, a&2 != 0
					}
				}
			case 3: // the oldest load commits
				if len(loads) > 0 {
					q.Remove(loads[0].tag)
					ref, loads = ref[1:], loads[1:]
				}
			case 4: // squash at a resident tag or just past the youngest
				from := next
				if n := len(loads); n > 0 && int(a)%(n+1) < n {
					from = loads[int(a)%(n+1)].tag
				}
				q.Squash(from)
				for len(ref) > 0 && ref[len(ref)-1].Tag >= from {
					ref, loads = ref[:len(ref)-1], loads[:len(loads)-1]
				}
			}
			if q.Len() != len(ref) || q.Full() != (len(ref) >= capacity) {
				t.Fatalf("Len=%d Full=%v, reference %d", q.Len(), q.Full(), len(ref))
			}
			youngest := int64(-1)
			if len(ref) > 0 {
				youngest = ref[len(ref)-1].Tag
				if h := q.Head(); h == nil || *h != ref[0] {
					t.Fatalf("Head = %+v, reference %+v", h, ref[0])
				}
			} else if q.Head() != nil {
				t.Fatalf("Head of an empty queue = %+v", q.Head())
			}
			if q.YoungestTag() != youngest {
				t.Fatalf("YoungestTag = %d, reference %d", q.YoungestTag(), youngest)
			}
			for j, l := range loads {
				if got := q.Find(l.h, l.tag); *got != ref[j] {
					t.Fatalf("Find(%d) = %+v, reference %+v", l.tag, *got, ref[j])
				}
			}
		}
	})
}
