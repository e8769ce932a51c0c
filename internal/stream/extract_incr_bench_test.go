package stream

import "testing"

// BenchmarkExtractAutoIncremental times ONLY the query in the
// alternating small-batch-ingest / extract serving loop: the batch and
// the between-query pre-warm run with the timer stopped, so the measured
// cost is one extraction over a slightly dirty, otherwise warm
// ensemble — the case the differential decode targets.
func BenchmarkExtractAutoIncremental(b *testing.B) {
	a := benchExtractAuto(b)
	ops := benchIngestOps(4096)
	const batch = 16
	a.WarmDecodeCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lo := (i * batch) % len(ops)
		hi := lo + batch
		if hi > len(ops) {
			hi = len(ops)
		}
		a.Apply(ops[lo:hi])
		b.StartTimer()
		if _, err := a.Result(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		a.WarmDecodeCache()
		b.StartTimer()
	}
}
