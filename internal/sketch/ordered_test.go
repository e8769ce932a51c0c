package sketch

import (
	"math/rand"
	"testing"
)

// randBatch builds n (key, payload, delta) columns with nKeys distinct
// keys (duplicates guaranteed when n > nKeys) and deltas in [-3, 3]
// including zero.
func randBatch(rng *rand.Rand, n, nKeys, pd int) (keys []uint64, payload []int64, deltas []int64) {
	pool := make([]uint64, nKeys)
	for i := range pool {
		pool[i] = rng.Uint64()
	}
	keys = make([]uint64, n)
	deltas = make([]int64, n)
	if pd > 0 {
		payload = make([]int64, n*pd)
	}
	for t := 0; t < n; t++ {
		keys[t] = pool[rng.Intn(nKeys)]
		deltas[t] = int64(rng.Intn(7)) - 3
		for j := 0; j < pd; j++ {
			payload[t*pd+j] = int64(rng.Intn(2001)) - 1000
		}
	}
	return
}

// scaleRows returns payload with each row multiplied by its delta: a raw,
// uncoalesced batch in the pre-scaled form the batch kernels take.
func scaleRows(payload, deltas []int64, pd int) []int64 {
	if pd == 0 {
		return nil
	}
	out := make([]int64, len(payload))
	for t, d := range deltas {
		for j := 0; j < pd; j++ {
			out[t*pd+j] = d * payload[t*pd+j]
		}
	}
	return out
}

// perOpUpdate applies a raw batch one op at a time through Update — the
// reference every batch write is pinned to.
func perOpUpdate(sr *SparseRecovery, keys []uint64, payload, deltas []int64, pd int) {
	for t := range keys {
		var row []int64
		if pd > 0 {
			row = payload[t*pd : (t+1)*pd]
		}
		sr.Update(keys[t], row, deltas[t])
	}
}

// batchKernels are the two slab-write layouts, driven directly so both
// run on every batch size, plus ("batch") the size-rule dispatch
// production calls.
var batchKernels = []struct {
	name  string
	apply func(sr *SparseRecovery, keys []uint64, scaled, deltas []int64)
}{
	{"ordered", (*SparseRecovery).updateOrderedN},
	{"lanes", (*SparseRecovery).updateLanesN},
	{"batch", (*SparseRecovery).UpdateScaledN},
}

// TestUpdateNOrderedMatchesScatter pins the bucket-ordered kernel and the
// 4-lane scatter kernel to per-op Update: for batch sizes on both sides
// of the orderedMinRows threshold, payload dims 0 and 2, and deltas
// spanning negative and zero, every write schedule must leave
// bit-identical slabs.
func TestUpdateNOrderedMatchesScatter(t *testing.T) {
	for _, pd := range []int{0, 2} {
		for _, n := range []int{1, 3, orderedMinRows - 1, orderedMinRows, 257, 1024} {
			rng := rand.New(rand.NewSource(int64(1000*pd + n)))
			base := NewSparseRecovery(rand.New(rand.NewSource(7)), 32, 0.01, pd)
			keys, payload, deltas := randBatch(rng, n, 5+rng.Intn(n+1), pd)
			scaled := scaleRows(payload, deltas, pd)

			perOp := base.CloneEmpty()
			perOpUpdate(perOp, keys, payload, deltas, pd)
			for _, k := range batchKernels {
				got := base.CloneEmpty()
				k.apply(got, keys, scaled, deltas)
				if d1, d2 := perOp.Digest(), got.Digest(); d1 != d2 {
					t.Fatalf("pd=%d n=%d: %s digest %x != per-op %x", pd, n, k.name, d2, d1)
				}
			}
		}
	}
}

// TestUpdateScaledNMatchesUpdateN verifies the pre-aggregated write
// rule: manually coalescing a batch by key (summing deltas and
// delta-scaled payload rows) and feeding the sums through either kernel
// must be bit-identical to the raw batch applied per op through Update —
// including coalesced rows whose delta sum cancels to zero while the
// payload sum does not, the case a naive zero-delta skip would drop.
func TestUpdateScaledNMatchesUpdateN(t *testing.T) {
	const pd = 3
	for _, n := range []int{2, 16, orderedMinRows * 4} {
		rng := rand.New(rand.NewSource(int64(n)))
		base := NewSparseRecovery(rand.New(rand.NewSource(11)), 24, 0.01, pd)
		keys, payload, deltas := randBatch(rng, n, 1+n/4, pd)
		// Force a zero-sum key with non-cancelling payload: +1 with payload
		// p and -1 with payload q != p.
		keys = append(keys, 0xdeadbeef, 0xdeadbeef)
		payload = append(payload, 5, 6, 7, 1, 2, 3)
		deltas = append(deltas, 1, -1)

		raw := base.CloneEmpty()
		perOpUpdate(raw, keys, payload, deltas, pd)

		// Coalesce by key in first-occurrence order, exactly as the ingest
		// coalescer does.
		idx := make(map[uint64]int)
		var cKeys []uint64
		var cScaled, cDeltas []int64
		for t := range keys {
			i, seen := idx[keys[t]]
			if !seen {
				i = len(cKeys)
				idx[keys[t]] = i
				cKeys = append(cKeys, keys[t])
				cScaled = append(cScaled, make([]int64, pd)...)
				cDeltas = append(cDeltas, 0)
			}
			cDeltas[i] += deltas[t]
			for j := 0; j < pd; j++ {
				cScaled[i*pd+j] += deltas[t] * payload[t*pd+j]
			}
		}

		for _, k := range batchKernels {
			co := base.CloneEmpty()
			k.apply(co, cKeys, cScaled, cDeltas)
			if d1, d2 := raw.Digest(), co.Digest(); d1 != d2 {
				t.Fatalf("n=%d %s: coalesced digest %x != raw %x", n, k.name, d2, d1)
			}
		}
	}
}

// TestUpdateNDuplicateHeavyBatch is the dedicated duplicate-heavy
// equivalence case: a large batch concentrated on a handful of keys (the
// coarse-grid-level shape that motivates coalescing) must decode to the
// same items whether applied per-op, bucket-ordered, or via the scatter
// lanes — and the slabs must be bit-identical.
func TestUpdateNDuplicateHeavyBatch(t *testing.T) {
	const n, nKeys, pd = 4096, 7, 2
	rng := rand.New(rand.NewSource(99))
	base := NewSparseRecovery(rand.New(rand.NewSource(13)), 16, 0.001, pd)
	keys, payload, deltas := randBatch(rng, n, nKeys, pd)
	// Keep net counts nonzero so Decode has something to recover.
	for i := 0; i < nKeys; i++ {
		keys = append(keys, keys[i])
		payload = append(payload, int64(i), int64(-i))
		deltas = append(deltas, int64(100+i))
	}

	perOp := base.CloneEmpty()
	perOpUpdate(perOp, keys, payload, deltas, pd)
	wantItems, wantOK := perOp.Decode()

	scaled := scaleRows(payload, deltas, pd)
	for _, k := range batchKernels {
		got := base.CloneEmpty()
		k.apply(got, keys, scaled, deltas)
		if d1, d2 := perOp.Digest(), got.Digest(); d1 != d2 {
			t.Fatalf("%s: digest %x != per-op %x", k.name, d2, d1)
		}
		items, ok := got.Decode()
		if ok != wantOK || len(items) != len(wantItems) {
			t.Fatalf("%s: decode ok=%v n=%d, want ok=%v n=%d",
				k.name, ok, len(items), wantOK, len(wantItems))
		}
	}
}

// TestUpdateNReusedScratchIndependent runs two different batches back to
// back through one sketch's ordered kernel and checks the reused scratch
// buffers leak nothing between calls (second batch smaller than first).
func TestUpdateNReusedScratchIndependent(t *testing.T) {
	const pd = 1
	base := NewSparseRecovery(rand.New(rand.NewSource(21)), 16, 0.01, pd)
	rng := rand.New(rand.NewSource(22))
	k1, p1, d1 := randBatch(rng, 512, 9, pd)
	k2, p2, d2 := randBatch(rng, orderedMinRows+5, 3, pd)

	seq := base.CloneEmpty()
	seq.updateOrderedN(k1, scaleRows(p1, d1, pd), d1)
	seq.updateOrderedN(k2, scaleRows(p2, d2, pd), d2)

	perOp := base.CloneEmpty()
	perOpUpdate(perOp, k1, p1, d1, pd)
	perOpUpdate(perOp, k2, p2, d2, pd)
	if a, b := seq.Digest(), perOp.Digest(); a != b {
		t.Fatalf("sequential batches digest %x != per-op %x", a, b)
	}
}
