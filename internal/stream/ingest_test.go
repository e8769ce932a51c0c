package stream

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/workload"
)

// shuffledChurnOps builds an insert+delete workload: every mixture point
// inserted, a junk set inserted and fully deleted, all in a fixed shuffled
// order.
func shuffledChurnOps(seed int64, n int) []Op {
	rng := rand.New(rand.NewSource(seed))
	ps, _ := workload.Mixture{N: n, D: 2, Delta: testDelta, K: 3, Spread: 8, Skew: 2, NoiseFrac: 0.05}.Generate(rng)
	junk := workload.UniformBox(rng, n/2, 2, testDelta)
	ops := make([]Op, 0, n+2*len(junk))
	for _, p := range ps {
		ops = append(ops, Op{P: p})
	}
	for _, p := range junk {
		ops = append(ops, Op{P: p})
	}
	// Deletions must trail the matching insertions to keep every prefix
	// valid; shuffle inserts and deletes separately.
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	dels := make([]Op, len(junk))
	for i, p := range junk {
		dels[i] = Op{P: p, Delete: true}
	}
	rng.Shuffle(len(dels), func(i, j int) { dels[i], dels[j] = dels[j], dels[i] })
	return append(ops, dels...)
}

func sameCoreset(t *testing.T, a, b *coreset.Coreset, errA, errB error) {
	t.Helper()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("result errors differ: %v vs %v", errA, errB)
	}
	if errA != nil {
		return
	}
	if a.Size() != b.Size() {
		t.Fatalf("coreset sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for i := range a.Points {
		if !a.Points[i].P.Equal(b.Points[i].P) || a.Points[i].W != b.Points[i].W {
			t.Fatalf("coreset point %d differs: %v/%v vs %v/%v",
				i, a.Points[i].P, a.Points[i].W, b.Points[i].P, b.Points[i].W)
		}
	}
}

// TestApplyMatchesPerOp: the batched pipeline must produce bit-identical
// sketch state — hence identical Bytes() and Result() — to the per-op
// oracle, for every batch size (chunk 1 is what Insert/Delete do). At
// o = 2¹² every sampler keeps every op; at o = 2²⁰ the fine levels'
// h and ĥ samplers drop some, so each substream's selection mask matters.
func TestApplyMatchesPerOp(t *testing.T) {
	ops := shuffledChurnOps(101, 1200)
	for _, o := range []float64{1 << 12, 1 << 20} {
		cfg := Config{Dim: 2, Delta: testDelta, O: o, Params: coreset.Params{K: 3, Seed: 51}}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracleReplay(ref, ops)

		for _, chunk := range []int{1, 7, 64, len(ops)} {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			applyChunked(s.Apply, ops, chunk)
			if s.N() != ref.N() {
				t.Fatalf("o=%g chunk %d: N %d vs %d", o, chunk, s.N(), ref.N())
			}
			if s.Bytes() != ref.Bytes() {
				t.Fatalf("o=%g chunk %d: Bytes %d vs %d", o, chunk, s.Bytes(), ref.Bytes())
			}
			if s.StateDigest() != ref.StateDigest() {
				t.Fatalf("o=%g chunk %d: sketch state diverged from the per-op oracle", o, chunk)
			}
			ca, errA := ref.Result()
			cb, errB := s.Result()
			sameCoreset(t, ca, cb, errA, errB)
		}
	}
}

// TestAutoApplyMatchesPerOp: same bit-identical contract for the guess
// enumeration, whose Apply spreads its distinct sketches across a
// worker pool. GOMAXPROCS is raised so the pool genuinely runs concurrent
// workers even on a single-core machine — under -race this validates that
// no two units touch overlapping sketch state, shared rate-1 sketches
// included.
func TestAutoApplyMatchesPerOp(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	ops := shuffledChurnOps(202, 900)
	cfg := Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 52},
		CellSparsity: 512, PointSparsity: 2048}

	ref, err := NewAuto(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	oracleReplayAuto(ref, ops)

	a, err := NewAuto(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	applyChunked(a.Apply, ops, 256)
	if a.n != ref.n || a.reservoir.Seen() != ref.reservoir.Seen() || a.costBound.n != ref.costBound.n {
		t.Fatal("batched Auto.Apply selectors diverged from per-op replay")
	}
	if a.StateDigest() != ref.StateDigest() {
		t.Fatal("batched Auto.Apply state diverged from per-op replay")
	}
	if a.Bytes() != ref.Bytes() {
		t.Fatalf("Bytes %d vs %d", a.Bytes(), ref.Bytes())
	}
	ca, errA := ref.Result()
	cb, errB := a.Result()
	sameCoreset(t, ca, cb, errA, errB)
}

// TestAutoApplyRejectsBatchBeforeUpdating: a batch with a wrong-dimension
// point must panic before touching any state — the guess selectors
// (net count, reservoir, cost bound) and the sketches stay equal to a
// fresh ensemble's. Insert is a one-op Apply, so it is covered too.
func TestAutoApplyRejectsBatchBeforeUpdating(t *testing.T) {
	cfg := Config{Dim: 2, Delta: 256, Params: coreset.Params{K: 2, Seed: 53},
		CellSparsity: 64, PointSparsity: 128}
	fresh, err := NewAuto(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		feed func(a *Auto)
	}{
		{"Apply", func(a *Auto) { a.Apply([]Op{{P: geo.Point{3, 4}}, {P: geo.Point{1, 2, 3}}}) }},
		{"Insert", func(a *Auto) { a.Insert(geo.Point{1, 2, 3}) }},
		{"Delete", func(a *Auto) { a.Delete(geo.Point{5}) }},
	} {
		a, err := NewAuto(cfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: wrong-dimension point did not panic", tc.name)
				}
			}()
			tc.feed(a)
		}()
		if a.n != fresh.n || a.reservoir.Seen() != fresh.reservoir.Seen() || a.costBound.n != fresh.costBound.n {
			t.Fatalf("%s: selectors moved on a rejected batch: n=%d seen=%d costBound.n=%d",
				tc.name, a.n, a.reservoir.Seen(), a.costBound.n)
		}
		if a.StateDigest() != fresh.StateDigest() {
			t.Fatalf("%s: sketches moved on a rejected batch", tc.name)
		}
	}
}

// TestSharedGridAcrossGuesses: the guess instances of one Auto share one
// grid shift and one fingerprint — the invariant that makes one key column
// valid for the whole ensemble.
func TestSharedGridAcrossGuesses(t *testing.T) {
	a, err := NewAuto(Config{Dim: 2, Delta: 256, Params: coreset.Params{K: 2, Seed: 3}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := geo.Point{17, 200}
	for _, s := range a.streams {
		if s.g != a.g || s.fp != a.fp {
			t.Fatal("guess instance does not share the ensemble grid/fingerprint")
		}
		if s.fp.Key(p) != a.fp.Key(p) {
			t.Fatal("fingerprint keys differ across guesses")
		}
	}
}

// TestApplyEquivalenceWithDeleteOnlyBatch: a batch of pure deletions must
// cancel a batch of pure insertions exactly, leaving the digest of the
// empty stream.
func TestApplyEquivalenceWithDeleteOnlyBatch(t *testing.T) {
	ps, _ := testMixture(77, 400)
	cfg := Config{Dim: 2, Delta: testDelta, O: 1024, Params: coreset.Params{K: 3, Seed: 78}}
	empty, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]Op, len(ps))
	del := make([]Op, len(ps))
	for i, p := range ps {
		ins[i] = Op{P: p}
		del[i] = Op{P: p, Delete: true}
	}
	s.Apply(ins)
	if s.StateDigest() == empty.StateDigest() {
		t.Fatal("insertions left no trace in the sketches")
	}
	s.Apply(del)
	if s.StateDigest() != empty.StateDigest() {
		t.Fatal("deletions did not cancel insertions exactly")
	}
}

// TestAutoApplyWeightSanity: end-to-end quality through the batched path —
// the selected coreset still carries the right total weight.
func TestAutoApplyWeightSanity(t *testing.T) {
	ps, _ := testMixture(33, 2000)
	a, err := NewAuto(Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 34},
		CellSparsity: 512, PointSparsity: 2048}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, len(ps))
	for i, p := range ps {
		ops[i] = Op{P: p}
	}
	a.Apply(ops)
	cs, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	if w := cs.TotalWeight(); math.Abs(w-float64(len(ps))) > 0.3*float64(len(ps)) {
		t.Fatalf("total weight %v vs n=%d", w, len(ps))
	}
}
