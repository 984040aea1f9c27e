package pipeline

import (
	"testing"
	"unsafe"
)

// TestEntrySize pins the reorder-buffer entry's size. Every dispatch
// zeroes a whole entry (pool.get), so growth is paid on every
// instruction; keep new fields inside the packed layout (entry's
// comment) rather than raising this bound.
func TestEntrySize(t *testing.T) {
	const max = 272
	if got := unsafe.Sizeof(entry{}); got > max {
		t.Errorf("entry is %d bytes, want at most %d", got, max)
	}
}
