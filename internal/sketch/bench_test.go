package sketch

import (
	"math/rand"
	"testing"

	"streambalance/internal/testutil"
)

func BenchmarkSparseUpdate(b *testing.B) {
	for _, s := range []int{256, 4096} {
		b.Run(testutil.BenchName("s", s)+"/scalar", func(b *testing.B) {
			sr := NewSparseRecovery(rand.New(rand.NewSource(1)), s, 0.01, 2)
			payload := []int64{7, 9}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sr.Update(uint64(i), payload, 1)
			}
		})
		// Production's size-rule dispatch, then each layout forced: the
		// ordered-vs-scatter A/B at one batch shape.
		for _, k := range batchKernels {
			b.Run(testutil.BenchName("s", s)+"/"+k.name, func(b *testing.B) {
				sr := NewSparseRecovery(rand.New(rand.NewSource(1)), s, 0.01, 2)
				const chunk = 512
				keys := make([]uint64, chunk)
				payload := make([]int64, chunk*2)
				deltas := make([]int64, chunk)
				for i := 0; i < chunk; i++ {
					keys[i] = uint64(i) * 0x9e3779b97f4a7c15
					payload[2*i], payload[2*i+1] = 7, 9
					deltas[i] = 1
				}
				b.ResetTimer()
				for i := 0; i < b.N; i += chunk {
					n := min(chunk, b.N-i)
					k.apply(sr, keys[:n], payload[:n*2], deltas[:n])
				}
			})
		}
	}
}

// benchSketch builds an s-sparse sketch loaded with exactly s items.
func benchSketch(s int) *SparseRecovery {
	rng := rand.New(rand.NewSource(2))
	sr := NewSparseRecovery(rng, s, 0.01, 2)
	for i := 0; i < s; i++ {
		sr.Update(uint64(rng.Int63()), []int64{1, 2}, 1)
	}
	return sr
}

func BenchmarkSparseDecode(b *testing.B) {
	for _, s := range []int{64, 1024} {
		b.Run(testutil.BenchName("s", s), func(b *testing.B) {
			sr := benchSketch(s)
			arena := NewDecodeArena()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := sr.DecodeWith(arena); !ok {
					b.Fatal("decode failed")
				}
			}
		})
	}
}

// BenchmarkSparseDecodeReference times the retained round-based scan
// decoder — the baseline the worklist decoder's speedup is measured
// against.
func BenchmarkSparseDecodeReference(b *testing.B) {
	for _, s := range []int{64, 1024} {
		b.Run(testutil.BenchName("s", s), func(b *testing.B) {
			sr := benchSketch(s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := sr.DecodeReference(); !ok {
					b.Fatal("decode failed")
				}
			}
		})
	}
}
