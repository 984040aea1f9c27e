package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// generateDigest is an FNV-64a digest of generate's output (entry PC and
// every instruction field) over the catalog at several seeds.
func generateDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, p := range Catalog() {
		for _, seed := range []uint64{1, 2, 3, 42, 0x5eed} {
			pr := generate(p.sane(), seed)
			put(pr.Entry)
			put(uint64(len(pr.Code)))
			for _, in := range pr.Code {
				put(uint64(in.Op))
				put(uint64(in.Dst)<<16 | uint64(in.Src1)<<8 | uint64(in.Src2))
				put(uint64(in.Imm))
			}
		}
	}
	return h.Sum64()
}

// TestGenerateDigest pins the calibrated programs: the calibration loop
// may get cheaper, but every workload at every seed must generate the
// same instructions.
func TestGenerateDigest(t *testing.T) {
	const want uint64 = 0xa72ce8d9c14c3085
	if got := generateDigest(); got != want {
		t.Errorf("generate digest = %#x, want %#x", got, want)
	}
}

// BenchmarkGenerate times the uncached calibration loop across the
// catalog.
func BenchmarkGenerate(b *testing.B) {
	cat := Catalog()
	for i := 0; i < b.N; i++ {
		p := cat[i%len(cat)]
		generate(p.sane(), uint64(i))
	}
}
