// Package setstore holds the per-set state of set-associative
// structures (cache tag arrays, the BTB) so that it costs memory in
// proportion to the sets a run touches rather than the configured
// capacity. A set materializes on its first write, in touch order; a
// never-written set reads as no ways at all, which matches nothing.
package setstore

import "math"

// Store maps set numbers to groups of ways values of T. Construction
// allocates only the index, 4 bytes per set. A read is one index load,
// then the way data: the materialized sets share one contiguous slice,
// so no chunk table sits between the two.
type Store[T any] struct {
	// index holds each set's end offset into ways: a materialized set
	// occupies ways[end-n : end], and a never-touched set has end 0.
	index []uint32
	// ways holds every materialized set in first-touch order, so a
	// strided footprint pays only for the sets it touches, not for the
	// ranges between them.
	ways []T
	n    uint32 // ways per set
}

// New builds a store of sets groups of ways values each.
func New[T any](sets, ways int) Store[T] {
	if sets <= 0 || ways <= 0 {
		panic("setstore: sets and ways must be positive")
	}
	return Store[T]{index: make([]uint32, sets), n: uint32(ways)}
}

// Get returns set's ways for reading: empty for a never-touched set,
// so a probe of one scans nothing, exactly like a set of invalid ways.
func (s *Store[T]) Get(set uint64) []T {
	end := s.index[set]
	return s.ways[end-min(end, s.n) : end : end]
}

// Touch returns set's ways for writing, materializing them as zero
// values on the set's first touch. Storage doubles when full, so the
// copies leave about the final size behind as garbage; append's 1.25x
// growth for large slices leaves four times that, which cost the
// 16-way benchmark about 30 MB of resident set.
func (s *Store[T]) Touch(set uint64) []T {
	end := s.index[set]
	if end == 0 {
		if uint64(len(s.ways))+uint64(s.n) > math.MaxUint32 {
			panic("setstore: way storage exceeds the 32-bit index")
		}
		if len(s.ways)+int(s.n) > cap(s.ways) {
			grown := make([]T, len(s.ways), 2*(len(s.ways)+int(s.n)))
			copy(grown, s.ways)
			s.ways = grown
		}
		s.ways = s.ways[:len(s.ways)+int(s.n)]
		end = uint32(len(s.ways))
		s.index[set] = end
	}
	return s.ways[end-s.n : end : end]
}
