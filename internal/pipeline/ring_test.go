package pipeline

import (
	"testing"

	"vbmo/internal/consistency"
)

// The ring buffers exist to make the cycle loop allocation-free, but
// they must stay drop-in replacements for the slices they replaced.
// These tests exercise every operation across wraparound boundaries
// and check the writerRing against a reference map + eviction log.

func TestEntryRingFIFOWraparound(t *testing.T) {
	const capacity = 4
	r := newEntryRing(capacity)
	mk := func(tag int64) *entry { return &entry{tag: tag} }

	// Push/pop enough times to wrap the head several times over.
	next := int64(0)
	oldest := int64(0)
	for round := 0; round < 5; round++ {
		for r.Len() < capacity {
			r.Push(mk(next))
			next++
		}
		// Random access must see entries oldest-first.
		for i := 0; i < r.Len(); i++ {
			if got := r.At(i).tag; got != oldest+int64(i) {
				t.Fatalf("round %d: At(%d).tag = %d, want %d", round, i, got, oldest+int64(i))
			}
		}
		// Drain a couple from the front.
		for k := 0; k < 2; k++ {
			if got := r.PopFront().tag; got != oldest {
				t.Fatalf("round %d: PopFront tag = %d, want %d", round, got, oldest)
			}
			oldest++
		}
	}
}

func TestEntryRingTruncateFrom(t *testing.T) {
	const capacity = 4
	r := newEntryRing(capacity)
	mk := func(tag int64) *entry { return &entry{tag: tag} }

	// Arrange a wrapped state: head in the middle of the backing array.
	for i := int64(0); i < capacity; i++ {
		r.Push(mk(i))
	}
	r.PopFront()
	r.PopFront()
	r.Push(mk(4))
	r.Push(mk(5)) // ring now holds 2,3,4,5 with head=2

	r.TruncateFrom(1) // squash everything younger than the oldest
	if r.Len() != 1 {
		t.Fatalf("Len after TruncateFrom(1) = %d, want 1", r.Len())
	}
	if got := r.At(0).tag; got != 2 {
		t.Fatalf("survivor tag = %d, want 2", got)
	}
	// Dropped slots must be nil'd so the pool's recycled entries are not
	// also reachable through the ring.
	nils := 0
	for _, e := range r.buf {
		if e == nil {
			nils++
		}
	}
	if nils != capacity-1 {
		t.Fatalf("nil backing slots = %d, want %d", nils, capacity-1)
	}

	// The ring stays usable after a truncate.
	r.Push(mk(6))
	if r.Len() != 2 || r.At(1).tag != 6 {
		t.Fatal("push after truncate broke the ring")
	}
}

func TestFetchRingOps(t *testing.T) {
	const capacity = 3
	r := newFetchRing(capacity)
	next := uint64(0)
	front := uint64(0)
	for round := 0; round < 4; round++ {
		for r.Len() < capacity {
			f := r.PushSlot()
			if f.pc != 0 || f.readyCycle != 0 {
				t.Fatal("PushSlot must hand out a zeroed slot")
			}
			f.pc = next
			next++
		}
		for k := 0; k < 2; k++ {
			if got := r.Front().pc; got != front {
				t.Fatalf("round %d: Front().pc = %d, want %d", round, got, front)
			}
			r.DropFront()
			front++
		}
	}
	r.Clear()
	if r.Len() != 0 {
		t.Fatal("Clear left entries behind")
	}
	// A cleared ring accepts a full capacity again.
	for i := 0; i < capacity; i++ {
		r.PushSlot().pc = 100 + uint64(i)
	}
	if r.Front().pc != 100 {
		t.Fatal("ring confused after Clear")
	}
}

// TestWriterRingMatchesReferenceWindow drives the writerRing alongside
// the map-plus-eviction-log it replaced and requires identical lookup
// results for hits, evicted tags, and never-pushed tags.
func TestWriterRingMatchesReferenceWindow(t *testing.T) {
	const window = 8
	r := newWriterRing(window)
	ref := make(map[int64]consistency.Writer)
	var log []int64

	tag := int64(0)
	for i := 0; i < 50; i++ {
		tag += int64(1 + i%3) // strictly increasing, with gaps
		w := consistency.Writer(i + 1)
		r.Push(tag, w)
		ref[tag] = w
		log = append(log, tag)
		if len(log) > window {
			delete(ref, log[0])
			log = log[1:]
		}

		// Every tag ever seen, plus some never-pushed ones.
		for probe := int64(0); probe <= tag+2; probe++ {
			gotW, gotOK := r.Lookup(probe)
			wantW, wantOK := ref[probe]
			if gotOK != wantOK || (gotOK && gotW != wantW) {
				t.Fatalf("after %d pushes: Lookup(%d) = (%v,%v), want (%v,%v)",
					i+1, probe, gotW, gotOK, wantW, wantOK)
			}
		}
	}
}

func TestWriterRingNilSafe(t *testing.T) {
	var r *writerRing
	if _, ok := r.Lookup(1); ok {
		t.Fatal("nil writerRing must report a miss")
	}
}

// TestPoolGenerationTags checks the freelist's recycle contract: the
// generation survives zeroing and strictly increases, so a consumer
// holding a stale producer pointer is detectable (entry.srcReady
// panics on a generation mismatch).
func TestPoolGenerationTags(t *testing.T) {
	var p pool
	p.init(2)
	a := p.get()
	g := a.gen
	if g == 0 {
		t.Fatal("recycled entry must have a nonzero generation")
	}
	a.tag = 99
	a.result = 7
	p.put(a)
	b := p.get()
	if b != a {
		t.Fatal("pool did not recycle the freed entry")
	}
	if b.tag != 0 || b.result != 0 {
		t.Fatal("pool must zero recycled entries")
	}
	if b.gen != g+1 {
		t.Fatalf("generation after recycle = %d, want %d", b.gen, g+1)
	}

	// Stale-pointer detection end to end.
	consumer := &entry{src1: b, src1Gen: b.gen}
	p.put(b)
	stale := p.get() // same slot, bumped generation
	if stale != b {
		t.Fatal("expected the same slot back")
	}
	defer func() {
		if recover() == nil {
			t.Error("srcReady must panic on a stale producer generation")
		}
	}()
	consumer.srcReady(1)
}

// TestPoolExhaustionFallback: an empty pool falls back to heap
// allocation with a fresh generation rather than failing.
func TestPoolExhaustionFallback(t *testing.T) {
	var p pool
	p.init(1)
	_ = p.get()
	extra := p.get()
	if extra == nil || extra.gen != 1 {
		t.Fatalf("fallback entry gen = %v, want 1", extra.gen)
	}
}
