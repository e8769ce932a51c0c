package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"streambalance"
)

func TestSourceDeterministicPerSeed(t *testing.T) {
	for _, w := range specs {
		a, b, c := newSource(7), newSource(7), newSource(8)
		if !reflect.DeepEqual(a.initial, b.initial) {
			t.Fatalf("%s: same seed, different initial load", w.name)
		}
		if reflect.DeepEqual(a.initial, c.initial) {
			t.Fatalf("%s: seeds 7 and 8 give the same initial load", w.name)
		}
		differ := false
		for r := 0; r < 5; r++ {
			oa := append([]streambalance.Op(nil), a.next(w)...)
			ob := append([]streambalance.Op(nil), b.next(w)...)
			oc := c.next(w)
			if !reflect.DeepEqual(oa, ob) {
				t.Fatalf("%s round %d: same seed, different ops", w.name, r)
			}
			differ = differ || !reflect.DeepEqual(oa, oc)
		}
		if !differ {
			t.Fatalf("%s: seeds 7 and 8 give the same rounds", w.name)
		}
		if !reflect.DeepEqual(a.live, b.live) {
			t.Fatalf("%s: same seed, different live multisets", w.name)
		}
	}
}

func TestChurnKeepsLiveSize(t *testing.T) {
	for _, name := range []string{"firehose", "serve-churn"} {
		w, _ := lookupSpec(name)
		s := newSource(3)
		for r := 0; r < 20; r++ {
			s.next(w)
		}
		if len(s.live) != liveSize {
			t.Fatalf("%s: %d live points after churn, want %d", name, len(s.live), liveSize)
		}
	}
}

func TestQueryHotNeverGrowsSupport(t *testing.T) {
	w, _ := lookupSpec("query-hot")
	s := newSource(5)
	before := len(fold(s.live))
	for r := 0; r < 500; r++ {
		for _, op := range s.next(w) {
			if op.Delete {
				t.Fatal("query-hot issued a deletion")
			}
		}
	}
	if got := len(fold(s.live)); got != before {
		t.Fatalf("distinct support grew from %d to %d", before, got)
	}
	if len(s.live) != liveSize+500*w.batch {
		t.Fatalf("live multiset holds %d copies, want %d", len(s.live), liveSize+500*w.batch)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false},
		{20, 0.5, 10, true},
		{199, 0.95, 190, false},
		{200, 0.95, 190, true},
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
	// Failed calls count as missing every latency limit.
	xs := latencies(nil, 3)
	if len(xs) != 3 || !math.IsInf(median(xs), 1) {
		t.Errorf("latencies of 3 failures = %v, want three +Inf", xs)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// TestNamesMatchBenchmarkJSON keeps the contract in BENCHMARK.json and
// the program's workload and metric tables in step.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
}

// smallConfig is an ensemble small enough for a unit test.
func smallConfig() streambalance.StreamConfig {
	return streambalance.StreamConfig{
		Dim:           2,
		Delta:         64,
		Params:        streambalance.Params{K: 2, R: 2, Seed: 11},
		CellSparsity:  16,
		PointSparsity: 32,
	}
}

func TestDigestCatchesDroppedDelete(t *testing.T) {
	cfg := smallConfig()
	pt := func(x, y int64) streambalance.Point { return streambalance.Point{x, y} }
	var ops []streambalance.Op
	for i := int64(1); i <= 40; i++ {
		ops = append(ops, streambalance.Op{P: pt(i, 65-i)})
	}
	for i := int64(1); i <= 40; i += 3 {
		ops = append(ops, streambalance.Op{P: pt(i, 65-i), Delete: true})
	}
	var live []streambalance.Point
	for i := int64(1); i <= 40; i++ {
		if (i-1)%3 != 0 {
			live = append(live, pt(i, 65-i))
		}
	}
	want, err := liveDigest(cfg, live)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(ops []streambalance.Op) uint64 {
		a, err := streambalance.NewAutoStream(cfg, guessRatio)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(ops); lo += 7 {
			a.Apply(ops[lo:min(lo+7, len(ops))])
		}
		return a.StateDigest()
	}
	if got := digest(ops); got != want {
		t.Fatalf("churned digest %016x, surviving multiset %016x", got, want)
	}
	if got := digest(ops[:len(ops)-1]); got == want {
		t.Fatal("dropping one delete left the digest unchanged")
	}
}

// TestRoundsIgnoreHostSpeed pins the round count to the arguments, so a
// seed issues the same calls, and FAILs the same ones, on every run.
func TestRoundsIgnoreHostSpeed(t *testing.T) {
	for _, w := range specs {
		total := int(math.Round(12 * w.rate))
		if got := w.rounds(12, 1); got != total {
			t.Errorf("%s: rounds(12, 1) = %d, want %d", w.name, got, total)
		}
		if got := w.rounds(12, instances); got != total/instances {
			t.Errorf("%s: rounds(12, %d) = %d, want %d", w.name, instances, got, total/instances)
		}
		if got := w.rounds(0.001, passes); got != 1 {
			t.Errorf("%s: rounds(0.001, %d) = %d, want at least one round", w.name, passes, got)
		}
	}
}
