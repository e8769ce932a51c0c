package stream

import (
	"strconv"
	"testing"

	"streambalance/internal/obs"
)

// TestGuessOutcomeVector: with telemetry on, one extraction records
// exactly one "selected" outcome under the accepted guess's label, and
// the per-guess attempt counts sum to the scalar aggregate's delta.
func TestGuessOutcomeVector(t *testing.T) {
	a := extractTestAuto(t, 57)
	a.Apply(mixedOps(56, 1500))

	obs.Enable()
	defer obs.Disable()

	att0 := mGuessAttempts.Load()
	vatt0 := make([]int64, len(a.guesses))
	vsel0 := make([]int64, len(a.guesses))
	lbl := func(o float64) string { return strconv.FormatFloat(o, 'g', -1, 64) }
	for i, o := range a.guesses {
		vatt0[i] = vGuessOutcome.With(lbl(o), "attempt").Load()
		vsel0[i] = vGuessOutcome.With(lbl(o), "selected").Load()
	}

	cs, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}

	sel := -1
	for i, o := range a.guesses {
		if o == cs.O {
			sel = i
		}
	}
	if sel < 0 {
		t.Fatalf("accepted guess %v not among the enumerated guesses", cs.O)
	}
	if d := vGuessOutcome.With(lbl(cs.O), "selected").Load() - vsel0[sel]; d != 1 {
		t.Fatalf("selected{guess=%s} advanced by %d, want 1", lbl(cs.O), d)
	}

	var vattSum int64
	for i, o := range a.guesses {
		vattSum += vGuessOutcome.With(lbl(o), "attempt").Load() - vatt0[i]
	}
	if scalar := mGuessAttempts.Load() - att0; vattSum != scalar {
		t.Fatalf("per-guess attempts %d != scalar stream_guess_attempts_total delta %d", vattSum, scalar)
	}
	if vattSum < 1 {
		t.Fatal("no attempt outcome recorded")
	}

	// Disabled: the vector must not intern or count.
	obs.Disable()
	before := vGuessOutcome.With(lbl(cs.O), "selected").Load()
	if _, err := a.Result(); err != nil {
		t.Fatal(err)
	}
	if got := vGuessOutcome.With(lbl(cs.O), "selected").Load(); got != before {
		t.Fatalf("selected outcome advanced while telemetry disabled: %d -> %d", before, got)
	}
}

// TestGuessAttemptedOncePerCall: with telemetry on, one Result call
// attempts each guess at most once — stream_guess_attempts_total moves
// by at most len(Guesses()) — and an estimate guess that FAILs is
// counted once, not again when the fallback scan passes it. Serial and
// parallel paths record the same outcomes.
func TestGuessAttemptedOncePerCall(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	lbl := func(o float64) string { return strconv.FormatFloat(o, 'g', -1, 64) }
	for _, tc := range selectionCases() {
		if tc.name != "estimate-fails-scan" && tc.name != "all-fail" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			a := extractTestAuto(t, tc.seed)
			a.Apply(tc.ops)
			estO := a.guesses[a.estimateGuess()]
			var perCall []int64
			for _, workers := range []int{1, 2, 4} {
				att0 := mGuessAttempts.Load()
				estAtt0 := vGuessOutcome.With(lbl(estO), "attempt").Load()
				estFail0 := vGuessOutcome.With(lbl(estO), "fail").Load()
				cs, err := a.resultWith(workers)
				tc.regime(t, a, cs, err)
				d := mGuessAttempts.Load() - att0
				if d < 1 || d > int64(len(a.Guesses())) {
					t.Fatalf("%d workers: %d attempts for %d guesses", workers, d, len(a.Guesses()))
				}
				if n := vGuessOutcome.With(lbl(estO), "attempt").Load() - estAtt0; n != 1 {
					t.Fatalf("%d workers: estimate guess %s attempted %d times, want 1", workers, lbl(estO), n)
				}
				if n := vGuessOutcome.With(lbl(estO), "fail").Load() - estFail0; n != 1 {
					t.Fatalf("%d workers: estimate guess %s FAILed %d times, want 1", workers, lbl(estO), n)
				}
				perCall = append(perCall, d)
			}
			for _, d := range perCall[1:] {
				if d != perCall[0] {
					t.Fatalf("attempts per call differ across worker counts: %v", perCall)
				}
			}
		})
	}
}
