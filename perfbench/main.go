// Command perfbench is the repository's end-to-end benchmark: it drives
// the public serving loop Auto.Apply → Auto.Result → SolveCapacitated in
// a closed loop on one named workload, checks the outputs, and prints
// every metric by name and unit, ending with one JSON line.
//
// --seconds sets the size of the timed phase: that many seconds of
// rounds at the workload's nominal rate, a fixed count, so the calls a
// seed makes (and which of them fail) do not depend on the host's speed.
//
// With --trace 0 it reports the end-to-end metrics, measured with
// telemetry off over six independent instances of the workload. With
// --trace 1 it runs four passes of the first instance, each from a
// fresh set-up — heap bytes counted per call (untimed), telemetry off,
// obs metrics and spans on, and GOMAXPROCS=1 — and reports the
// per-layer metrics (README.md has the table of which end-to-end metric each one
// should move, and on which workload).
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload serve-churn --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

// instances is how many independent data sets a --trace 0 run covers.
// Each gets its own set-up and an equal share of the rounds, so a
// run's figures rest on several mixture geometries instead of one.
const instances = 6

// qualityInstances is how many of a run's instances, from the first,
// measure coreset_err and weight_err. The capacitated solve and the cost
// on the full live data take ~1.3 s an instance, the largest untimed
// cost of a run.
const qualityInstances = 2

// instanceSeed derives the seed of instance i of a run from the
// workload seed; distinct (seed, i) pairs give distinct seeds.
func instanceSeed(seed int64, i int) int64 { return seed*instances + int64(i) }

// metric is one reported number. n is the sample count behind a timing
// (0 for a count or a size).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// report collects a run's metrics and outcome.
type report struct {
	metrics   []metric
	notes     []string // metrics the percentile rule withholds
	attempted int
	failed    int
}

func (r *report) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name, unit, value, n})
}

// addTiming adds the median of xs, which is always reported, and its
// 95th percentile when at least ten samples lie beyond it.
func (r *report) addTiming(prefix string, xs []float64) {
	if len(xs) == 0 {
		r.notes = append(r.notes, prefix+"_p50: no samples")
		return
	}
	r.add(prefix+"_p50", "ms", median(xs), len(xs))
	if v, ok := percentile(xs, 0.95); ok {
		r.add(prefix+"_p95", "ms", v, len(xs))
	} else {
		r.notes = append(r.notes, fmt.Sprintf("%s_p95: withheld, %d samples leave fewer than %d beyond it", prefix, len(xs), minBeyond))
	}
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: firehose, query-hot or serve-churn")
	seed := fs.Int64("seed", 1, "workload seed (ops and sketch hash functions)")
	seconds := fs.Float64("seconds", 10, "timed-phase size: seconds of rounds at the workload's nominal rate, shared by a run's instances or passes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupSpec(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (firehose|query-hot|serve-churn), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	b := &bench{w: w}
	var rep *report
	var err error
	if *trace == 0 {
		rep, err = b.endToEnd(*seed, w.rounds(*seconds, instances))
	} else {
		rep, err = b.perLayer(*seed, w.rounds(*seconds, passes))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	contract := endToEndMetrics
	if *trace == 1 {
		contract = perLayerMetrics
	}
	for _, c := range contract {
		m, ok := rep.get(c.name)
		switch {
		case !ok:
			b.failf("metric %s was not measured", c.name)
		case math.IsInf(m.value, 0) || math.IsNaN(m.value):
			// A median of +Inf means most calls failed; JSON cannot carry it.
			b.failf("metric %s is %v", c.name, m.value)
		}
	}
	if err := printReport(os.Stdout, w.name, *seed, rep, contract, b.failures); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if len(b.failures) > 0 {
		return 1
	}
	return 0
}

// endToEnd is the --trace 0 run. For each instance: calibration,
// set-up, an untraced timed phase of the given number of rounds, then
// the untimed space and digest measurements, and on the first
// qualityInstances the quality measurement. Timings pool over the
// instances; sizes and quality are medians over them.
func (b *bench) endToEnd(seed int64, rounds int) (*report, error) {
	rep := &report{}
	all := &pass{}
	var setup, heap, sketch, cache, coreErr, weightErr, cal []float64
	for i := 0; i < instances; i++ {
		b.reset(instanceSeed(seed, i))
		cal = append(cal, calibrate())
		d, ok, err := b.setup()
		if err != nil {
			return nil, err
		}
		rep.attempted++
		if !ok {
			rep.failed++
		}
		setup = append(setup, d.Seconds())
		all.merge(b.run(rounds, false, false))

		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		heap = append(heap, float64(mem.HeapAlloc))
		sketch = append(sketch, float64(b.a.Bytes()))
		cache = append(cache, float64(b.a.DecodeCacheBytes()))
		if err := b.checkDigest(); err != nil {
			return nil, err
		}
		if i >= qualityInstances || b.last == nil || !b.lastFresh {
			continue // no quality check, or the final query failed and is already counted
		}
		rep.attempted++
		ce, we, ok := quality(b.last, b.src.live)
		if !ok {
			rep.failed++
			continue
		}
		coreErr = append(coreErr, ce)
		weightErr = append(weightErr, we)
	}
	rep.attempted += all.calls
	rep.failed += all.resultFails + all.solveFails

	rep.add("setup_s", "s", median(setup), len(setup))
	rep.add("ops_per_s", "1/s", float64(all.ops)/all.busy.Seconds(), len(all.apply))
	rep.addTiming("round_ms", latencies(all.rounds, all.roundFails))
	rep.add("cal_ms", "ms", median(cal), len(cal))
	if m, ok := rep.get("round_ms_p50"); ok {
		rep.add("round_rel_p50", "ratio", m.value/median(cal), m.n)
	}
	rep.addTiming("coreset_ms", latencies(all.coreset, all.resultFails))
	if b.w.solveEvery > 0 {
		rep.addTiming("centers_ms", latencies(all.centers, all.solveFails))
	}
	rep.add("heap_bytes", "B", median(heap), len(heap))
	rep.add("sketch_bytes", "B", median(sketch), len(sketch))
	rep.add("cache_bytes", "B", median(cache), len(cache))
	rep.add("fail_ratio", "ratio", ratio(float64(rep.failed), float64(rep.attempted)), rep.attempted)
	if len(coreErr) > 0 {
		rep.add("coreset_err", "ratio", median(coreErr), len(coreErr))
		rep.add("weight_err", "ratio", median(weightErr), len(weightErr))
	} else {
		rep.notes = append(rep.notes, "coreset_err, weight_err: no final coreset to measure")
	}
	return rep, nil
}

// metricSpec names a metric of the benchmark's contract (BENCHMARK.json).
type metricSpec struct{ name, unit string }

// endToEndMetrics are the --trace 0 metrics of the contract: those that
// apply to every workload and stay steady across seeds and host drift.
// Round latency is gated in units of the calibration kernel's time
// (round_rel_p50); the others, raw round_ms_p50 included, are printed
// as text.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"round_rel_p50", "ratio"},
	{"sketch_bytes", "B"},
	{"heap_bytes", "B"},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printReport prints every metric as a text line, the correctness
// verdict, and last the JSON result carrying the contract's metrics.
func printReport(out *os.File, workload string, seed int64, rep *report, contract []metricSpec, failures []string) error {
	fmt.Fprintf(out, "workload %s seed %d GOMAXPROCS %d\n", workload, seed, runtime.GOMAXPROCS(0))
	for _, m := range rep.metrics {
		if m.n > 0 {
			fmt.Fprintf(out, "  %-34s %16.6f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(out, "  %-34s %16.6f %s\n", m.name, m.value, m.unit)
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintf(out, "  (%s)\n", n)
	}
	for _, f := range failures {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", f)
	}
	res := jsonResult{
		Correct:   len(failures) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, c := range contract {
		if m, ok := rep.get(c.name); ok && !math.IsInf(m.value, 0) && !math.IsNaN(m.value) {
			res.Metrics[c.name] = jsonMetric{Value: m.value, Unit: c.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
