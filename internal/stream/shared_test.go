package stream

import (
	"fmt"
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/obs"
	"streambalance/internal/sketch"
)

// perfbenchAuto is the ensemble at the serving-loop benchmark's
// geometry: Δ = 1024, d = 2, k = 4, α = 512, β = 2048, guess ratio 8 —
// 14 guesses over L = 10.
func perfbenchAuto(t *testing.T, seed int64) *Auto {
	t.Helper()
	a, err := NewAuto(Config{Dim: 2, Delta: 1024, Params: coreset.Params{K: 4, R: 2, Seed: seed},
		CellSparsity: 512, PointSparsity: 2048}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// slotCount is the number of (guess, level, substream) sketch slots of
// the ensemble: h at levels 0..L−1, h′ and ĥ at 0..L, per guess.
func slotCount(a *Auto) int { return len(a.streams) * (3*a.g.L + 2) }

// TestSharedSketchLayout: at the benchmark geometry every rate-1 slot
// holds the ensemble's one instance for its (substream, level) — one in
// total for ĥ — every other slot a private one, and the ensemble's
// distinct units are exactly those sketches. Bytes counts each once:
// 73,482,240 bytes against 197,181,440 with a sketch per slot.
func TestSharedSketchLayout(t *testing.T) {
	a := perfbenchAuto(t, 1)
	if len(a.streams) != 14 || a.g.L != 10 {
		t.Fatalf("geometry: %d guesses, L=%d; want 14, 10", len(a.streams), a.g.L)
	}
	owner := map[*sketch.Storing]string{}
	var rate1 [3]int
	for _, s := range a.streams {
		for _, u := range s.slots() {
			want := fmt.Sprintf("private %p", u.samp)
			if u.samp.Phi() >= 1 {
				rate1[u.sub]++
				want = fmt.Sprintf("shared %d/%d", u.sub, u.level)
				if u.sub == subHat {
					want = "shared hat"
				}
			}
			if got, ok := owner[u.st]; ok && got != want {
				t.Fatalf("sketch of slot %s also fills slot %s", want, got)
			}
			owner[u.st] = want
		}
	}
	if rate1 != [3]int{93, 124, 103} {
		t.Fatalf("rate-1 slots (h, h′, ĥ) = %v, want [93 124 103]", rate1)
	}
	if len(a.units) != len(owner) || len(a.units) != 150 {
		t.Fatalf("%d units, %d distinct sketches; want 150", len(a.units), len(owner))
	}
	if got := a.Bytes(); got != 73_482_240 {
		t.Fatalf("Bytes() = %d, want 73,482,240", got)
	}
}

// TestDirtyLevelsCountsDistinctUnits: the ensemble-wide accessors walk
// distinct sketches — DirtyLevels' total is the unit count, not the
// slot count, and a warm leaves no unit dirty.
func TestDirtyLevelsCountsDistinctUnits(t *testing.T) {
	a := perfbenchAuto(t, 2)
	a.Apply(mixedOps(3, 600))
	dirty, total := a.DirtyLevels()
	if total != len(a.units) || total >= slotCount(a) {
		t.Fatalf("DirtyLevels total %d; want the %d distinct units (< %d slots)", total, len(a.units), slotCount(a))
	}
	if dirty != total {
		t.Fatalf("%d of %d units dirty before any decode", dirty, total)
	}
	a.WarmDecodeCache()
	if dirty, _ := a.DirtyLevels(); dirty != 0 {
		t.Fatalf("%d units dirty after WarmDecodeCache", dirty)
	}
	st := a.CacheStats()
	if decodes := st.Misses + st.Stale; decodes != int64(total) {
		t.Fatalf("warm decoded %d times; want once per unit (%d)", decodes, total)
	}
}

// hatAliased returns the index of the first guess instance of a whose
// ĥ slots include both a sketch shared across levels and a private one.
func hatAliased(t *testing.T, a *Auto) int {
	t.Helper()
	for k, s := range a.streams {
		shared, private := false, false
		for i := 1; i <= s.g.L; i++ {
			if s.hatStore[i] == s.hatStore[i-1] {
				shared = true
			} else {
				private = true
			}
		}
		if shared && private {
			return k
		}
	}
	t.Fatal("no guess instance mixes shared and private ĥ levels")
	return -1
}

// TestForkMergeSharedHatMatchesSerial: a Stream whose rate-1 ĥ levels
// share one sketch — a guess instance of an ensemble — forks into
// clones that keep the aliasing (one clone per distinct sketch), and a
// fork/merge round trip reproduces the digest and coreset of one serial
// Apply of the whole stream.
func TestForkMergeSharedHatMatchesSerial(t *testing.T) {
	ops := shuffledChurnOps(808, 500)
	serial, ens := extractTestAuto(t, 81), extractTestAuto(t, 81)
	serial.Apply(ops)
	k := hatAliased(t, ens)
	s, ref := ens.streams[k], serial.streams[k]
	forks := []*Stream{s.Fork(), s.Fork()}
	for _, f := range forks {
		if len(f.units) != len(s.units) {
			t.Fatalf("fork has %d units, original %d", len(f.units), len(s.units))
		}
		for i := 1; i <= s.g.L; i++ {
			if (f.hatStore[i] == f.hatStore[i-1]) != (s.hatStore[i] == s.hatStore[i-1]) {
				t.Fatalf("fork lost the ĥ aliasing at level %d", i)
			}
		}
	}
	for i, op := range ops {
		forks[i%2].Apply([]Op{op})
	}
	for _, f := range forks {
		s.Merge(f)
	}
	if s.N() != ref.N() || s.StateDigest() != ref.StateDigest() {
		t.Fatalf("fork/merge: N %d digest %x; serial N %d digest %x",
			s.N(), s.StateDigest(), ref.N(), ref.StateDigest())
	}
	csA, errA := ref.Result()
	csB, errB := s.Result()
	sameCoreset(t, csA, csB, errA, errB)
}

// TestSharedSketchesWrittenOnce (run under -race by check-kernels): a
// batch writes each shared unit exactly once — its net update count is
// the batch's net op count, not a multiple of it — and Result, whose
// guess workers decode the shared units concurrently, equals
// ResultSerial.
func TestSharedSketchesWrittenOnce(t *testing.T) {
	a := extractTestAuto(t, 91)
	fills := map[*sketch.Storing]int{}
	for _, s := range a.streams {
		for _, u := range s.slots() {
			fills[u.st]++
		}
	}
	ops := mixedOps(92, 1200)
	var net int64
	for _, chunk := range []int{len(ops) / 2, 1, 64} {
		a.Apply(ops[:chunk])
		net += netCount(ops[:chunk])
		ops = ops[chunk:]
	}
	sharedUnits := 0
	for _, u := range a.units {
		if fills[u.st] < 2 {
			continue
		}
		sharedUnits++
		if got := u.st.NetUpdates(); got != net {
			t.Fatalf("shared unit (substream %d, level %d, %d slots): %d net updates, want %d",
				u.sub, u.level, fills[u.st], got, net)
		}
	}
	if sharedUnits == 0 {
		t.Fatal("no shared units in the ensemble")
	}
	csS, errS := a.ResultSerial()
	for _, workers := range []int{2, 4} {
		a.DropDecodeCache()
		cs, err := a.resultWith(workers)
		if (err == nil) != (errS == nil) || (err != nil && err.Error() != errS.Error()) {
			t.Fatalf("%d workers: error %v, serial %v", workers, err, errS)
		}
		if err == nil {
			equalExtraction(t, cs, csS, fmt.Sprintf("%d workers", workers))
		}
	}
}

// TestSketchBytesBySubstream: with telemetry on, the per-substream space
// gauges sum to Auto.Bytes() and the shared-sketch gauge counts the
// slots that reuse another slot's sketch; with it off, a query leaves
// them alone.
func TestSketchBytesBySubstream(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	a := extractTestAuto(t, 95)
	a.Apply(mixedOps(96, 800))
	if _, err := a.Result(); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, sub := range []string{"h", "hp", "hat", "costbound"} {
		v := vSketchBytes.With(sub).Load()
		if v <= 0 {
			t.Fatalf("stream_sketch_bytes{substream=%q} = %v", sub, v)
		}
		sum += v
	}
	if want := float64(a.Bytes()); sum != want || mSketchBytes.Load() != want {
		t.Fatalf("substream gauges sum to %v, scalar gauge %v; Bytes() = %v", sum, mSketchBytes.Load(), want)
	}
	if got, want := mSharedSketches.Load(), float64(slotCount(a)-len(a.units)); got != want || want <= 0 {
		t.Fatalf("stream_shared_sketches = %v, want %v", got, want)
	}

	// Disabled: a query publishes nothing.
	obs.Disable()
	before := vSketchBytes.With("hat").Load()
	b := perfbenchAuto(t, 97)
	b.Apply(mixedOps(98, 200))
	b.Result()
	if got := vSketchBytes.With("hat").Load(); got != before {
		t.Fatalf("stream_sketch_bytes{substream=\"hat\"} moved while telemetry disabled: %v -> %v", before, got)
	}
}
