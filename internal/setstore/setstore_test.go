package setstore

import "testing"

// TestTouchOrder: storage grows by exactly one set per first touch, in
// touch order, however the touched sets are spread. A strided footprint
// (one set in every 256) must not pay for the sets between, and a
// never-touched set reads as no ways.
func TestTouchOrder(t *testing.T) {
	s := New[uint64](16384, 8)
	for i := 0; i < 64; i++ {
		set := uint64(i * 256)
		s.Touch(set)[0] = uint64(i) + 1
		s.Touch(set) // a second touch materializes nothing
		if got, want := len(s.ways), (i+1)*8; got != want {
			t.Fatalf("after %d touches: %d ways stored, want %d", i+1, got, want)
		}
		if got, want := s.index[set], uint32((i+1)*8); got != want {
			t.Fatalf("set %d ends at offset %d, want %d (touch order)", set, got, want)
		}
	}
	for i := 0; i < 64; i++ {
		ways := s.Get(uint64(i * 256))
		if len(ways) != 8 || cap(ways) != 8 || ways[0] != uint64(i)+1 {
			t.Fatalf("set %d reads %v, want 8 ways starting with %d", i*256, ways, i+1)
		}
	}
	if ways := s.Get(1); len(ways) != 0 {
		t.Fatalf("a never-touched set reads %v, want no ways", ways)
	}
}
