package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"streambalance/internal/obs"
)

// perLayerMetrics are the --trace 1 metrics of the contract. A layer a
// workload bypasses reports 0.
var perLayerMetrics = []metricSpec{
	{"stream.apply_ms_p50", "ms"},
	{"stream.apply_us_per_op", "us"},
	{"stream.apply_alloc_b_per_op", "B"},
	{"stream.sketch_updates_per_op", "count"},
	{"stream.coalesce_ratio.h", "ratio"},
	{"stream.coalesce_ratio.hp", "ratio"},
	{"stream.coalesce_ratio.hat", "ratio"},
	{"stream.apply_speedup_1p", "ratio"},
	{"stream.select_ms_per_query", "ms"},
	{"stream.extract_ms_per_query", "ms"},
	{"stream.guess_attempts_per_query", "count"},
	{"stream.guess_useful_ratio", "ratio"},
	{"stream.dirty_unit_ratio", "ratio"},
	{"stream.result_alloc_b_per_query", "B"},
	{"stream.result_speedup_1p", "ratio"},
	{"sketch.decodes_per_query", "count"},
	{"sketch.decode_ms_per_query", "ms"},
	{"sketch.decode_fail_per_query", "count"},
	{"sketch.cache_hit_ratio", "ratio"},
	{"sketch.splices_per_query", "count"},
	{"sketch.splice_fallback_ratio", "ratio"},
	{"solve.ms_p50", "ms"},
	{"solve.alloc_b_per_call", "B"},
	{"solve.speedup_1p", "ratio"},
	{"flow.solves_per_call", "count"},
	{"flow.ms_per_call", "ms"},
	{"flow.pivots_per_call", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"obs.trace_overhead", "ratio"},
	{"obs.spans_dropped", "count"},
	{"bench.span_coverage", "ratio"},
}

// minSpanCoverage is the share of each round's wall time the layer
// spans must account for.
const minSpanCoverage = 0.9

// passes is how many timed passes share a --trace 1 run's rounds.
const passes = 3

// perLayer is the --trace 1 run. It makes four passes of the given
// number of rounds, each on a fresh set-up of the first instance, so all
// see the same op stream. First an untimed pass counts the heap bytes of
// each call: counting stops the world around every call, which would
// distort a timed pass, and the pass also warms the process heap, so the
// reference pass pays no first-touch page faults. Then the timed passes:
// telemetry off at the default GOMAXPROCS (the reference for the
// overhead and speed-up ratios), obs metrics and spans on (the per-layer
// numbers), and telemetry off at GOMAXPROCS=1. The digest check runs
// after each pass.
func (b *bench) perLayer(seed int64, rounds int) (*report, error) {
	rep := &report{}
	fresh := func() error {
		b.reset(instanceSeed(seed, 0))
		_, ok, err := b.setup()
		if err != nil {
			return err
		}
		rep.attempted++
		if !ok {
			rep.failed++
		}
		return nil
	}

	if err := fresh(); err != nil {
		return nil, err
	}
	mem := b.run(rounds, false, true)
	if err := b.checkDigest(); err != nil {
		return nil, err
	}

	if err := fresh(); err != nil {
		return nil, err
	}
	gc0, cpu0 := cpuSeconds()
	ref := b.run(rounds, false, false)
	gc1, cpu1 := cpuSeconds()
	if err := b.checkDigest(); err != nil {
		return nil, err
	}

	if err := fresh(); err != nil {
		return nil, err
	}
	obs.Trace.Reset()
	obs.Enable()
	obs.Trace.Enable()
	cache0 := b.a.CacheStats()
	snap0 := obs.Default.Snapshot()
	tr := b.run(rounds, true, false)
	snap1 := obs.Default.Snapshot()
	cache1 := b.a.CacheStats()
	obs.Trace.Disable()
	obs.Disable()
	if err := b.checkDigest(); err != nil {
		return nil, err
	}

	if err := fresh(); err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	one := b.run(rounds, false, false)
	runtime.GOMAXPROCS(procs)
	if err := b.checkDigest(); err != nil {
		return nil, err
	}

	for _, p := range []*pass{mem, ref, tr, one} {
		rep.attempted += p.calls
		rep.failed += p.resultFails + p.solveFails
	}

	spans := spanTotals(b.spans)
	c := func(name string) float64 { return float64(snap1.Counters[name] - snap0.Counters[name]) }
	h := func(name string) float64 { return float64(snap1.Hists[name].Sum - snap0.Hists[name].Sum) }
	ops := float64(tr.ops)
	queries := float64(len(tr.result))
	solves := float64(len(tr.solve))

	// stream: ingest.
	rep.add("stream.apply_ms_p50", "ms", median(msAll(tr.apply)), len(tr.apply))
	if v, ok := percentile(msAll(tr.apply), 0.95); ok {
		rep.add("stream.apply_ms_p95", "ms", v, len(tr.apply))
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("stream.apply_ms_p95: withheld, %d samples leave fewer than %d beyond it", len(tr.apply), minBeyond))
	}
	rep.add("stream.apply_us_per_op", "us", ratio(spans["stream.apply"].dur.Seconds()*1e6, ops), len(tr.apply))
	rep.add("stream.apply_alloc_b_per_op", "B", ratio(float64(mem.alloc["stream.apply"]), float64(mem.ops)), len(mem.apply))
	rep.add("stream.sketch_updates_per_op", "count", ratio(c("stream_sketch_updates_total"), c("stream_ops_total")), 0)
	for _, sub := range []string{"h", "hp", "hat"} {
		in := c(`stream_coalesce_ops_in_total{substream="` + sub + `"}`)
		out := c(`stream_coalesce_keys_out_total{substream="` + sub + `"}`)
		rep.add("stream.coalesce_ratio."+sub, "ratio", ratio(in, out), 0)
	}
	rep.add("stream.apply_speedup_1p", "ratio", ratio(perUnit(sum(one.apply), one.ops), perUnit(sum(ref.apply), ref.ops)), len(one.apply))

	// stream: query.
	rep.add("stream.select_ms_per_query", "ms", ratio(ms(spans["stream.select"].dur), queries), len(tr.result))
	rep.add("stream.extract_ms_per_query", "ms", ratio(h("stream_extract_ns")/1e6, queries), len(tr.result))
	attempts := c("stream_guess_attempts_total")
	rep.add("stream.guess_attempts_per_query", "count", ratio(attempts, queries), len(tr.result))
	rep.add("stream.guess_useful_ratio", "ratio", ratio(guessesSelected(snap0, snap1), attempts), 0)
	rep.add("stream.dirty_unit_ratio", "ratio", mean(tr.dirtyRatio), len(tr.dirtyRatio))
	rep.add("stream.result_alloc_b_per_query", "B", ratio(float64(mem.alloc["stream.result"]), float64(len(mem.result))), len(mem.result))
	rep.add("stream.result_speedup_1p", "ratio", ratio(perUnit(sum(one.result), int64(len(one.result))), perUnit(sum(ref.result), int64(len(ref.result)))), len(one.result))

	// sketch: decode and its cache.
	rep.add("sketch.decodes_per_query", "count", ratio(c("stream_extract_decodes_total"), queries), 0)
	rep.add("sketch.decode_ms_per_query", "ms", ratio(h("sketch_decode_ns")/1e6, queries), 0)
	rep.add("sketch.decode_fail_per_query", "count", ratio(c("sketch_decode_fail_total"), queries), 0)
	lookups := float64((cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses) + (cache1.Stale - cache0.Stale))
	splices := float64(cache1.Splices - cache0.Splices)
	fallbacks := float64(cache1.SpliceFallbacks - cache0.SpliceFallbacks)
	rep.add("sketch.cache_hit_ratio", "ratio", ratio(float64(cache1.Hits-cache0.Hits), lookups), 0)
	rep.add("sketch.splices_per_query", "count", ratio(splices, queries), 0)
	rep.add("sketch.splice_fallback_ratio", "ratio", ratio(fallbacks, splices+fallbacks), 0)

	// solve and the min-cost flow under it.
	rep.add("solve.ms_p50", "ms", median(msAll(tr.solve)), len(tr.solve))
	rep.add("solve.alloc_b_per_call", "B", ratio(float64(mem.alloc["solve.capacitated"]), float64(len(mem.solve))), len(mem.solve))
	rep.add("solve.speedup_1p", "ratio", ratio(perUnit(sum(one.solve), int64(len(one.solve))), perUnit(sum(ref.solve), int64(len(ref.solve)))), len(one.solve))
	flows := c("flow_solves_total")
	rep.add("flow.solves_per_call", "count", ratio(flows, solves), 0)
	rep.add("flow.ms_per_call", "ms", ratio(h("flow_solve_ns")/1e6, flows), 0)
	rep.add("flow.pivots_per_call", "count", ratio(c("flow_pivots_total"), flows), 0)

	// runtime and the trace itself.
	rep.add("runtime.gc_cpu_fraction", "ratio", ratio(gc1-gc0, cpu1-cpu0), 0)
	rep.add("obs.trace_overhead", "ratio", ratio(perUnit(tr.busy, tr.ops), perUnit(ref.busy, ref.ops)), 0)
	dropped := c("obs_spans_dropped_total")
	rep.add("obs.spans_dropped", "count", dropped, 0)
	layer := spans["stream.apply"].dur + spans["stream.result"].dur + spans["solve.capacitated"].dur
	coverage := ratio(float64(layer), float64(spans["bench.round"].dur))
	rep.add("bench.span_coverage", "ratio", coverage, spans["bench.round"].n)
	if coverage < minSpanCoverage {
		b.failf("layer spans cover %.3f of round wall time, below %.2f", coverage, minSpanCoverage)
	}
	if dropped != 0 || b.dropped != 0 {
		b.failf("the tracer dropped %d spans", max(int64(dropped), b.dropped))
	}
	if err := writeSpans(b.w.name, seed, b.spans); err != nil {
		return nil, err
	}
	return rep, nil
}

type spanTotal struct {
	n   int
	dur time.Duration
}

// spanTotals sums span durations by name.
func spanTotals(evs []obs.Event) map[string]spanTotal {
	out := map[string]spanTotal{}
	for _, e := range evs {
		t := out[e.Name]
		t.n++
		t.dur += time.Duration(e.Dur)
		out[e.Name] = t
	}
	return out
}

// guessesSelected is how many guesses were selected between the two
// snapshots, summed over the stream_guess_outcome_total vector.
func guessesSelected(before, after obs.Snapshot) float64 {
	var n int64
	for name, v := range after.Counters {
		if strings.HasPrefix(name, "stream_guess_outcome_total{") && strings.Contains(name, `outcome="selected"`) {
			n += v - before.Counters[name]
		}
	}
	return float64(n)
}

// perUnit is the time per unit of work in seconds, 0 when none was done.
func perUnit(d time.Duration, units int64) float64 {
	return ratio(d.Seconds(), float64(units))
}

// spanDir is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
const spanDir = ".bench_build/spans"

// writeSpans writes the traced pass's spans as JSON lines.
func writeSpans(workload string, seed int64, evs []obs.Event) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, e := range evs {
		if err := enc.Encode(e); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
