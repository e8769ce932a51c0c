package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/workload"
)

// equalExtraction asserts the two extraction outcomes are identical: same
// accepted guess, and the same points, weights and levels in the same
// order. Decode is deterministic in sketch state, so equivalent paths
// must agree bitwise, not just approximately.
func equalExtraction(t *testing.T, a, b *coreset.Coreset, label string) {
	t.Helper()
	if a.O != b.O {
		t.Fatalf("%s: accepted guess %v vs %v", label, a.O, b.O)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s: %d vs %d coreset points", label, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if !a.Points[i].P.Equal(b.Points[i].P) || a.Points[i].W != b.Points[i].W {
			t.Fatalf("%s: point %d differs: %v/%v vs %v/%v",
				label, i, a.Points[i].P, a.Points[i].W, b.Points[i].P, b.Points[i].W)
		}
		if a.Levels[i] != b.Levels[i] {
			t.Fatalf("%s: level %d differs: %d vs %d", label, i, a.Levels[i], b.Levels[i])
		}
	}
}

func extractTestAuto(t *testing.T, seed int64) *Auto {
	t.Helper()
	a, err := NewAuto(Config{
		Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: seed},
		CellSparsity: 512, PointSparsity: 2048,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mixedOps(seed int64, n int) []Op {
	ps, _ := testMixture(seed, n)
	rng := rand.New(rand.NewSource(seed ^ 0x0b5))
	junk := workload.UniformBox(rng, n/4, 2, testDelta)
	ops := make([]Op, 0, n+len(junk)*2)
	for _, p := range ps {
		ops = append(ops, Op{P: p})
	}
	for _, p := range junk {
		ops = append(ops, Op{P: p})
	}
	for _, i := range rng.Perm(len(junk)) {
		ops = append(ops, Op{P: junk[i], Delete: true})
	}
	return ops
}

// TestResultIdempotent: repeated Result calls — with and without
// interleaved updates — return identical coresets and never mutate
// N, Bytes or StateDigest. Run under -race via `make check`.
func TestResultIdempotent(t *testing.T) {
	ops := mixedOps(51, 2000)
	half := len(ops) / 2

	a := extractTestAuto(t, 52)
	a.Apply(ops[:half])

	n0, bytes0, dig0 := a.n, a.Bytes(), a.StateDigest()
	cs1, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := a.Result() // warm repeat, no updates in between
	if err != nil {
		t.Fatal(err)
	}
	equalExtraction(t, cs1, cs2, "repeat without updates")
	if a.n != n0 || a.Bytes() != bytes0 || a.StateDigest() != dig0 {
		t.Fatalf("Result mutated sketch state: n %d→%d bytes %d→%d digest %x→%x",
			n0, a.n, bytes0, a.Bytes(), dig0, a.StateDigest())
	}

	// Apply→Result→Apply→Result: the second extraction must equal a cold
	// extraction of a fresh instance that saw the whole stream at once.
	a.Apply(ops[half:])
	cs3, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	cs4, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	equalExtraction(t, cs3, cs4, "repeat after interleaved updates")

	ref := extractTestAuto(t, 52)
	ref.Apply(ops)
	if ref.StateDigest() != a.StateDigest() {
		t.Fatal("interleaved Apply/Result changed sketch state vs one-shot Apply")
	}
	csRef, err := ref.Result()
	if err != nil {
		t.Fatal(err)
	}
	equalExtraction(t, cs3, csRef, "interleaved extraction vs one-shot cold")
}

// insertOps is the insert-only op stream of an n-point test mixture.
func insertOps(seed int64, n int) []Op {
	ps, _ := testMixture(seed, n)
	ops := make([]Op, len(ps))
	for i, p := range ps {
		ops[i] = Op{P: p}
	}
	return ops
}

// selectionCase is one guess-selection regime of Auto.Result: the
// ensemble seed, its op stream, and a check that the serial outcome is
// really in that regime.
type selectionCase struct {
	name string
	seed int64
	ops  []Op
	// regime fails the test unless the serial outcome (cs, err) of a
	// takes the path the case is named for.
	regime func(t *testing.T, a *Auto, cs *coreset.Coreset, err error)
}

func selectionCases() []selectionCase {
	estimateOutcome := func(t *testing.T, a *Auto) (int, bool) {
		t.Helper()
		if !a.reservoir.Clean() {
			t.Fatal("insert-only stream left the reservoir dirty")
		}
		est := a.estimateGuess()
		if est < 0 {
			t.Fatal("no estimate guess")
		}
		cs, err := a.streams[est].ResultSerial()
		return est, err == nil && math.Abs(cs.TotalWeight()-float64(a.n)) <= 0.3*float64(a.n)+1
	}
	return []selectionCase{
		{"estimate", 102, insertOps(2, 2000), func(t *testing.T, a *Auto, cs *coreset.Coreset, err error) {
			if est, ok := estimateOutcome(t, a); !ok || err != nil || cs.O != a.guesses[est] {
				t.Fatalf("want the estimate guess selected: estimate ok %v, result %v", ok, err)
			}
		}},
		{"estimate-fails-scan", 103, insertOps(3, 3500), func(t *testing.T, a *Auto, cs *coreset.Coreset, err error) {
			if _, ok := estimateOutcome(t, a); ok || err != nil {
				t.Fatalf("want a FAILed estimate guess and a scan success: estimate ok %v, result %v", ok, err)
			}
		}},
		{"churn-scan", 62, mixedOps(61, 2000), func(t *testing.T, a *Auto, cs *coreset.Coreset, err error) {
			if a.reservoir.Clean() || err != nil {
				t.Fatalf("want the deletion scan path to succeed: clean %v, result %v", a.reservoir.Clean(), err)
			}
		}},
		{"all-fail", 101, insertOps(1, 5000), func(t *testing.T, a *Auto, cs *coreset.Coreset, err error) {
			if _, ok := estimateOutcome(t, a); ok || !errors.Is(err, ErrNoGuessSucceeded) ||
				!strings.Contains(err.Error(), "first failure") {
				t.Fatalf("want every guess to FAIL with a first failure: estimate ok %v, result %v", ok, err)
			}
		}},
	}
}

// waitGoroutines fails the test unless the goroutine count returns to
// base: a worker's deferred wg.Done runs just before it exits, so the
// count may trail the barrier briefly.
func waitGoroutines(t *testing.T, base int, label string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines alive after Result, baseline %d", label, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExtractParallelMatchesSerial: the guess-parallel scan and the lazy
// serial path must agree bitwise on the selected guess, the coreset and
// the error text, cold and warm, in every selection regime — the
// estimate guess selected, a FAILed estimate followed by the scan, the
// churn scan, and every guess FAILing — at 2, 4 and 8 workers
// regardless of GOMAXPROCS (so the concurrent path and its -race
// coverage run on single-CPU machines too). Every worker must have
// exited when Result returns. One ensemble per case serves both paths
// (extraction never changes sketch state, which the digest check
// confirms), keeping the test's footprint under -race to one ensemble.
func TestExtractParallelMatchesSerial(t *testing.T) {
	for _, tc := range selectionCases() {
		t.Run(tc.name, func(t *testing.T) {
			a := extractTestAuto(t, tc.seed)
			a.Apply(tc.ops)
			digest := a.StateDigest()
			csS, errS := a.ResultSerial()
			tc.regime(t, a, csS, errS)
			same := func(cs *coreset.Coreset, err error, label string) {
				t.Helper()
				if (err == nil) != (errS == nil) {
					t.Fatalf("%s: error %v, serial %v", label, err, errS)
				}
				if err != nil {
					if err.Error() != errS.Error() {
						t.Fatalf("%s: error %q, serial %q", label, err, errS)
					}
					return
				}
				equalExtraction(t, cs, csS, label)
			}
			for _, workers := range []int{2, 4, 8} {
				a.DropDecodeCache()
				for _, pass := range []string{"cold", "warm"} {
					label := fmt.Sprintf("%d workers, %s", workers, pass)
					base := runtime.NumGoroutine()
					cs, err := a.resultWith(workers)
					waitGoroutines(t, base, label)
					same(cs, err, label)
				}
			}
			// The serial path over caches the pool filled, and cold again.
			cs, err := a.ResultSerial()
			same(cs, err, "serial after parallel")
			a.DropDecodeCache()
			cs, err = a.ResultSerial()
			same(cs, err, "cold serial")
			if a.StateDigest() != digest {
				t.Fatal("extraction mutated sketch state")
			}
		})
	}
}

// TestExtractWarmMatchesCold: the epoch cache must be invisible — a warm
// re-extraction equals a cold one, and updates between extractions
// invalidate exactly what they touch.
func TestExtractWarmMatchesCold(t *testing.T) {
	ps, _ := testMixture(71, 1500)
	o := goodGuess(ps, 3)
	s, err := New(Config{Dim: 2, Delta: testDelta, O: o, Params: coreset.Params{K: 3, Seed: 72}})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, len(ps))
	for i, p := range ps {
		ops[i] = Op{P: p}
	}
	s.Apply(ops[:1000])

	warm1, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if s.DecodeCacheBytes() == 0 {
		t.Fatal("extraction should have populated the decode cache")
	}
	s.DropDecodeCache()
	if s.DecodeCacheBytes() != 0 {
		t.Fatal("DropDecodeCache left cache bytes behind")
	}
	cold1, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	equalExtraction(t, warm1, cold1, "warm vs cold")

	// Updates must invalidate: a warm extraction after new ops equals a
	// cold extraction of the full stream.
	s.Apply(ops[1000:])
	warm2, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	s.DropDecodeCache()
	cold2, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	equalExtraction(t, warm2, cold2, "post-update warm vs cold")
}

// TestForkMergeInvalidatesDecodeCache: Merge folds new state into warm
// sketches; their caches must not survive, or the next extraction would
// report the pre-merge stream.
func TestForkMergeInvalidatesDecodeCache(t *testing.T) {
	ps, _ := testMixture(81, 2000)
	o := goodGuess(ps, 3)
	cfg := Config{Dim: 2, Delta: testDelta, O: o, Params: coreset.Params{K: 3, Seed: 82}}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps[:1000] {
		s.Insert(p)
	}
	if _, err := s.Result(); err != nil { // warm the caches pre-merge
		t.Fatal(err)
	}

	fork := s.Fork()
	for _, p := range ps[1000:] {
		fork.Insert(p)
	}
	s.Merge(fork)

	got, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		ref.Insert(p)
	}
	if s.StateDigest() != ref.StateDigest() {
		t.Fatal("fork/merge state diverged from single pass")
	}
	want, err := ref.Result()
	if err != nil {
		t.Fatal(err)
	}
	equalExtraction(t, got, want, "post-merge extraction vs single-pass cold")
}

// TestAssemblePartAtMatchesPartOf: the ĥ assembly's level-local part
// lookup keeps exactly the points the root walk would — every guess
// instance that extracts, in the churn and insert-only regimes, yields
// the coreset of the PartOf filter over the same recovered points, in
// the same order, with parallel decodes racing on the shared ĥ sketch.
func TestAssemblePartAtMatchesPartOf(t *testing.T) {
	for _, tc := range selectionCases()[:3] {
		a := extractTestAuto(t, tc.seed)
		a.Apply(tc.ops)
		checked := 0
		for _, s := range a.streams {
			cs, err := s.Result()
			if err != nil {
				continue
			}
			checked++
			var want []geo.Weighted
			for i := 0; i <= s.g.L; i++ {
				res, _ := s.hatStore[i].Result()
				for _, pc := range res.Points {
					id, ok := cs.Part.PartOf(pc.P)
					if ok && id.Level == i && cs.Plan.Included[id] {
						want = append(want, geo.Weighted{P: pc.P, W: float64(pc.Count) / s.phi[i]})
					}
				}
			}
			if len(want) != len(cs.Points) {
				t.Fatalf("%s o=%g: %d points, PartOf filter keeps %d", tc.name, s.cfg.O, len(cs.Points), len(want))
			}
			for k := range want {
				if !want[k].P.Equal(cs.Points[k].P) || want[k].W != cs.Points[k].W {
					t.Fatalf("%s o=%g: point %d is %v/%v, PartOf filter %v/%v",
						tc.name, s.cfg.O, k, cs.Points[k].P, cs.Points[k].W, want[k].P, want[k].W)
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no guess instance extracted", tc.name)
		}
	}
}
