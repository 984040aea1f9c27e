// Package cache models the Table 3 cache hierarchy as a timing filter:
// set-associative tag arrays with LRU replacement, an inclusive
// three-level private hierarchy, MSHR-style miss merging, and a
// Power4-style stride prefetcher. Data values live in the shared memory
// image (package prog); the caches decide only *latency* and *coherence
// events*, which is all the memory-ordering mechanisms consume.
package cache

import "vbmo/internal/setstore"

// BlockSize is the cache block size in bytes (Table 3: 64-byte lines).
const BlockSize = 64

// BlockAddr returns the block-aligned address containing addr.
func BlockAddr(addr uint64) uint64 { return addr &^ (BlockSize - 1) }

// Config describes one cache level.
type Config struct {
	// Size is the capacity in bytes.
	Size int
	// Ways is the set associativity (1 = direct mapped).
	Ways int
	// Latency is the access latency in cycles.
	Latency int
}

// line is one way of a set. Its tag is the block address with bit 0,
// always clear in a block-aligned address, set while the line is
// valid, so the zero line is invalid. The tag is stored as two 32-bit
// halves so that a line packs into 12 bytes rather than 16.
type line struct {
	tagLo, tagHi uint32
	age          uint32 // lower is more recently used
}

func newLine(block uint64, age uint32) line {
	return line{tagLo: uint32(block | 1), tagHi: uint32(block >> 32), age: age}
}

func (l *line) tag() uint64 { return uint64(l.tagLo) | uint64(l.tagHi)<<32 }

func (l *line) valid() bool { return l.tagLo&1 != 0 }

// Array is a set-associative tag array with true-LRU replacement. It
// tracks presence only; block data lives in the memory image.
type Array struct {
	cfg     Config
	sets    setstore.Store[line]
	setMask uint64
	tick    uint32
	// Accesses, Hits count Lookup calls and their hits.
	Accesses, Hits uint64
}

// NewArray builds a tag array. Size/BlockSize/Ways must divide evenly;
// the set count must be a power of two. Construction allocates only a
// 4-byte-per-set index: a set's lines materialize on its first Insert
// (package setstore), so a large lightly-used array (an 8 MB L3 per
// core) costs memory in proportion to its touched footprint, and
// construction-heavy paths (one fresh hierarchy per experiment cell)
// stop paying for sets the run never references. A never-filled set
// reads as no lines, so probes of it miss without scanning.
func NewArray(cfg Config) *Array {
	nsets := cfg.Size / BlockSize / cfg.Ways
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	return &Array{cfg: cfg, setMask: uint64(nsets - 1), sets: setstore.New[line](nsets, cfg.Ways)}
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

func (a *Array) setIndex(addr uint64) uint64 {
	return (addr / BlockSize) & a.setMask
}

// Lookup probes for addr's block, updating LRU and hit statistics.
func (a *Array) Lookup(addr uint64) bool {
	a.Accesses++
	tag := BlockAddr(addr)
	set := a.sets.Get(a.setIndex(addr))
	for i := range set {
		if set[i].tag() == tag|1 {
			a.tick++
			set[i].age = a.tick
			a.Hits++
			return true
		}
	}
	return false
}

// Contains probes for addr's block without disturbing LRU or statistics.
func (a *Array) Contains(addr uint64) bool {
	tag := BlockAddr(addr)
	set := a.sets.Get(a.setIndex(addr))
	for i := range set {
		if set[i].tag() == tag|1 {
			return true
		}
	}
	return false
}

// Insert fills addr's block, returning the evicted block address if a
// valid victim was displaced.
func (a *Array) Insert(addr uint64) (victim uint64, evicted bool) {
	tag := BlockAddr(addr)
	set := a.sets.Touch(a.setIndex(addr))
	a.tick++
	vi := 0
	for i := range set {
		if set[i].tag() == tag|1 {
			set[i].age = a.tick // already present: refresh
			return 0, false
		}
		if !set[i].valid() {
			vi = i
		} else if set[vi].valid() && set[i].age < set[vi].age {
			vi = i
		}
	}
	if set[vi].valid() {
		victim, evicted = set[vi].tag()&^1, true
	}
	set[vi] = newLine(tag, a.tick)
	return victim, evicted
}

// Invalidate removes addr's block, reporting whether it was present.
func (a *Array) Invalidate(addr uint64) bool {
	tag := BlockAddr(addr)
	set := a.sets.Get(a.setIndex(addr))
	for i := range set {
		if set[i].tag() == tag|1 {
			set[i].tagLo &^= 1 // clear the valid bit
			return true
		}
	}
	return false
}

// MissRate returns 1 - hits/accesses.
func (a *Array) MissRate() float64 {
	if a.Accesses == 0 {
		return 0
	}
	return 1 - float64(a.Hits)/float64(a.Accesses)
}
