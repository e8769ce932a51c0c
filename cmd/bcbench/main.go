// Command bcbench runs the experiment suite of DESIGN.md §3 and prints
// one table per experiment — the rows EXPERIMENTS.md records.
//
// Usage:
//
//	bcbench [-scale 1.0] [-seed 1] [-only E1,E5] [-bench] [-outdir DIR]
//	bcbench -diff [-tol 0.6] old.json new.json
//
// -scale multiplies every instance size (use 2–4 for slower, tighter
// runs); -only restricts to a comma-separated subset of experiment ids.
// -diff compares two BENCH_*.json records and exits non-zero when a
// throughput or latency metric regressed beyond the tolerance (see
// diff.go) — the CI benchmark gate. -outdir redirects the -bench
// record files so a fresh run can be diffed against the committed ones.
// -bench skips the experiment suite and instead measures the field-kernel
// and decoder hot paths (scalar vs 4-lane batched hashing, worklist
// peeling decode), dynamic-stream
// ingest throughput (batched shared-key pipeline vs one-op Applies, and
// the batched pipeline re-run at each GOMAXPROCS setting of the -procs
// matrix), coreset-extraction throughput (cold parallel decode vs serial
// vs epoch-cache warm), capacitated-assignment throughput (per-call
// fresh-graph vs arena-reuse vs warm-started capacity sweeps) and
// distributed-protocol throughput (serial reference vs the pipelined
// driver at 1/4/8 workers, plus measured wire bytes vs the closed-form
// accounting), writing the numbers to BENCH_hash.json,
// BENCH_ingest.json, BENCH_extract.json, BENCH_assign.json and
// BENCH_dist.json for trajectory tracking.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"streambalance"
	"streambalance/internal/assign"
	"streambalance/internal/coreset"
	"streambalance/internal/dist"
	"streambalance/internal/experiments"
	"streambalance/internal/geo"
	"streambalance/internal/hashing"
	"streambalance/internal/metrics"
	"streambalance/internal/obs"
	"streambalance/internal/sketch"
	"streambalance/internal/solve"
	"streambalance/internal/workload"
)

// runMeta identifies the run that produced a BENCH_*.json: without the
// machine and revision a throughput number cannot be compared against a
// past one. The git revision comes from the binary's embedded build info
// (present when built inside a work tree with VCS stamping; "unknown"
// under -buildvcs=false or `go run` from a tarball).
//
// procsMatrix lists every GOMAXPROCS setting the bench exercised (nil
// means just the current one). The meta block refuses to stamp a run as
// "parallel" unless it both ran with GOMAXPROCS > 1 AND had more than
// one CPU to run on — the historical trajectory files were all recorded
// in a 1-CPU container, where worker-pool speedups read ~1.0× no matter
// what the code does, and a consumer comparing files must be able to
// tell those runs apart from real multicore ones.
// buildRevision and buildDirty are stamped by the Makefile bench/bcbench
// targets via -ldflags "-X main.buildRevision=... -X main.buildDirty=...".
// `go build` embeds vcs.* build settings only for package main of the
// containing module root, and test binaries / direct `go run` invocations
// often report nothing — the explicit stamp makes BENCH_*.json meta
// blocks identify their commit regardless of how the binary was built,
// with ReadBuildInfo retained as the fallback.
var (
	buildRevision string
	buildDirty    string
)

// benchOutDir is the -outdir flag: where writeBench places BENCH_*.json
// records ("" = current directory, the committed trajectory files).
var benchOutDir string

// writeBench records one bench result, shared by every bench function.
func writeBench(name string, rec map[string]any) error {
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := name
	if benchOutDir != "" {
		path = filepath.Join(benchOutDir, name)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}

// gcMeta reads the effective GOGC percent and memory limit once — both
// shift allocation-heavy numbers enough that comparing records across
// different GC settings is meaningless, so the meta block pins them.
// SetGCPercent(-1) is the only way to read GOGC; the value is restored
// immediately and cached so the probe runs at most once per process.
var (
	gcMetaOnce sync.Once
	gcPercent  int
	gcMemLimit int64
)

func gcMeta() (int, int64) {
	gcMetaOnce.Do(func() {
		gcPercent = debug.SetGCPercent(-1)
		debug.SetGCPercent(gcPercent)
		gcMemLimit = debug.SetMemoryLimit(-1)
	})
	return gcPercent, gcMemLimit
}

func runMeta(procsMatrix []int, wallStart time.Time) map[string]any {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if buildRevision != "" {
		rev = buildRevision
	}
	if buildDirty != "" {
		dirty = buildDirty == "true"
	}
	if len(procsMatrix) == 0 {
		procsMatrix = []int{runtime.GOMAXPROCS(0)}
	}
	maxProcs := 0
	for _, p := range procsMatrix {
		if p > maxProcs {
			maxProcs = p
		}
	}
	parallel := maxProcs > 1 && runtime.NumCPU() > 1
	gogc, memLimit := gcMeta()
	m := map[string]any{
		"git_revision":     rev,
		"git_dirty":        dirty,
		"go_version":       runtime.Version(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"num_cpu":          runtime.NumCPU(),
		"goos":             runtime.GOOS,
		"goarch":           runtime.GOARCH,
		"gogc":             gogc,
		"gomemlimit_bytes": memLimit,
		"timestamp":        time.Now().UTC().Format(time.RFC3339),
		"wall_clock_sec":   time.Since(wallStart).Seconds(),
		"procs_matrix":     procsMatrix,
		"parallel":         parallel,
	}
	if !parallel {
		m["parallel_caveat"] = "recorded with a single effective CPU (GOMAXPROCS or NumCPU = 1); " +
			"concurrency speedups in this file read ~1.0x and reflect algorithmic wins only"
	}
	return m
}

// benchHash measures the GF(2^61−1) kernel and decoder hot paths: the
// scalar per-key field routines against their 4-lane batched
// counterparts (KWise.Eval vs EvalN, Bernoulli.Sample vs SampleN,
// Fingerprint.Key vs KeyN), and the worklist peeling decoder with a
// reused arena (its A/B against the round-based reference decoder is
// the decode benchmark pair in internal/sketch). Scalar and
// batched passes are timed round-robin over the same columns (the
// lane kernels are bit-identical to the scalar routines, so both sides
// do exactly the same arithmetic). Prints a short report and records it
// as BENCH_hash.json.
func benchHash(seed int64) error {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	const cols = 1 << 15
	const lambda = 16
	keys := make([]uint64, cols)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	dst := make([]uint64, cols)
	sel := make([]bool, cols)
	pts := make([][]int64, cols)
	for i := range pts {
		pts[i] = []int64{rng.Int63n(1 << 20), rng.Int63n(1 << 20), rng.Int63n(1 << 20), rng.Int63n(1 << 20)}
	}
	kw := hashing.NewKWise(rng, lambda)
	bern := hashing.NewBernoulli(rng, lambda, 0.1)
	fp := hashing.NewFingerprint(rng)

	// timeBoth runs the two closures round-robin so machine-noise phases
	// spread over both sides, returning ns/op over rounds×cols ops each.
	timeBoth := func(rounds int, a, b func()) (nsA, nsB float64) {
		var ea, eb time.Duration
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			a()
			ea += time.Since(t0)
			t0 = time.Now()
			b()
			eb += time.Since(t0)
		}
		ops := float64(rounds) * cols
		return ea.Seconds() * 1e9 / ops, eb.Seconds() * 1e9 / ops
	}

	var sink uint64
	evalS, evalB := timeBoth(30,
		func() {
			for _, k := range keys {
				sink ^= kw.Eval(k)
			}
		},
		func() { kw.EvalN(dst, keys) })
	sampS, sampB := timeBoth(30,
		func() {
			for i, k := range keys {
				sel[i] = bern.Sample(k)
			}
		},
		func() { bern.SampleN(sel, keys) })
	keyS, keyB := timeBoth(10,
		func() {
			for _, p := range pts {
				sink ^= fp.Key(p)
			}
		},
		func() { fp.KeyN(dst, pts) })
	_ = sink

	kernel := func(name string, s, b float64) map[string]any {
		return map[string]any{
			"kernel":            name,
			"ns_per_op_scalar":  s,
			"ns_per_op_batched": b,
			"speedup":           s / b,
		}
	}
	hashRows := []map[string]any{
		kernel("kwise_eval_lambda16", evalS, evalB),
		kernel("bernoulli_sample_lambda16", sampS, sampB),
		kernel("fingerprint_key_dim4", keyS, keyB),
	}

	// Decode suite: sketches loaded to exactly their sparsity budget, the
	// regime every successful extraction decode runs in.
	var decodeRows []map[string]any
	arena := sketch.NewDecodeArena()
	for _, s := range []int{64, 1024} {
		srng := rand.New(rand.NewSource(seed + int64(s)))
		sr := sketch.NewSparseRecovery(srng, s, 0.01, 2)
		for i := 0; i < s; i++ {
			sr.Update(uint64(srng.Int63()), []int64{int64(i), 2}, 1)
		}
		// Untimed warm-up: the first decode grows the arena and faults in
		// the slab, which a steady-state decode never pays.
		if _, ok := sr.DecodeWith(arena); !ok {
			return fmt.Errorf("worklist decode failed at s=%d", s)
		}
		rounds := 4096 / s
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			if _, ok := sr.DecodeWith(arena); !ok {
				return fmt.Errorf("worklist decode failed at s=%d", s)
			}
		}
		decodeRows = append(decodeRows, map[string]any{
			"s":                      s,
			"ns_per_decode_worklist": time.Since(t0).Seconds() * 1e9 / float64(rounds),
		})
	}

	rec := map[string]any{
		"meta":       runMeta(nil, start),
		"bench":      "hash_decode",
		"column_len": cols,
		"lambda":     lambda,
		"seed":       seed,
		"hash":       hashRows,
		"decode":     decodeRows,
	}
	fmt.Printf("hash kernels   (column=%d keys, lambda=%d, GOMAXPROCS=%d)\n", cols, lambda, runtime.GOMAXPROCS(0))
	for _, r := range hashRows {
		fmt.Printf("  %-26s: %7.2f ns/op scalar  %7.2f ns/op batched  (%.2fx)\n",
			r["kernel"], r["ns_per_op_scalar"], r["ns_per_op_batched"], r["speedup"])
	}
	for _, r := range decodeRows {
		fmt.Printf("  decode s=%-4d             : %9.0f ns worklist\n", r["s"], r["ns_per_decode_worklist"])
	}
	return writeBench("BENCH_hash.json", rec)
}

// benchIngest measures ingest ops/sec of the guess-enumeration ensemble
// through the batched pipeline and through one-op Applies (Insert), then
// re-runs the batched pipeline at every GOMAXPROCS setting of procs —
// after one untimed warm-up run, each cell the median of ingestTrials
// runs, every run digest-checked against the one-op reference — prints
// a short report and records it as BENCH_ingest.json.
func benchIngest(scale float64, seed int64, procs []int) error {
	start := time.Now()
	n := int(16384 * scale)
	if n < 1024 {
		n = 1024
	}
	rng := rand.New(rand.NewSource(seed))
	ps, _ := workload.Mixture{N: n, D: 2, Delta: 1 << 12, K: 4, Spread: 20, Skew: 2, NoiseFrac: 0.05}.Generate(rng)
	cfg := streambalance.StreamConfig{
		Dim: 2, Delta: 1 << 12,
		Params:       streambalance.Params{K: 4, Seed: seed},
		CellSparsity: 512, PointSparsity: 2048,
	}
	newAuto := func() *streambalance.AutoStream {
		a, err := streambalance.NewAutoStream(cfg, 4)
		if err != nil {
			panic(err)
		}
		return a
	}

	serial := newAuto()
	t0 := time.Now()
	for _, p := range ps {
		serial.Insert(p)
	}
	perOpSec := float64(n) / time.Since(t0).Seconds()
	refDigest := serial.StateDigest()
	guesses := len(serial.Guesses())
	serial = nil

	ops := make([]streambalance.Op, n)
	for i, p := range ps {
		ops[i] = streambalance.Op{P: p}
	}
	const batchSize = 4096
	// applyBatched returns ops/sec and the final state digest; the
	// ensemble itself is dropped so trials never hold two at once.
	applyBatched := func(ops []streambalance.Op) (float64, uint64) {
		a := newAuto()
		t0 := time.Now()
		for i := 0; i < len(ops); i += batchSize {
			a.Apply(ops[i:min(i+batchSize, len(ops))])
		}
		return float64(len(ops)) / time.Since(t0).Seconds(), a.StateDigest()
	}

	// Untimed warm-up: the first batched run pays page faults and
	// first-use allocations that no later run sees.
	applyBatched(ops)
	batchedSec, _ := applyBatched(ops)

	// Duplicate-heavy variant: every op replayed 8× back to back — the
	// coarse-level shape where coalescing collapses whole batches.
	dup8 := make([]streambalance.Op, 0, 8*len(ops))
	for _, op := range ops {
		for r := 0; r < 8; r++ {
			dup8 = append(dup8, op)
		}
	}
	dup8Sec, _ := applyBatched(dup8)
	dup8 = nil

	// Multicore scaling of the batched pipeline's (guess × level-range)
	// worker pool: each cell is the median of ingestTrials runs, with the
	// max/min spread recorded beside it (informational: the key carries
	// no per_sec, so the diff gate reports but never gates it). Sketch
	// state is linear, so every run must land on the one-op reference
	// digest.
	const ingestTrials = 3
	origProcs := runtime.GOMAXPROCS(0)
	byProcs := map[string]any{}
	spread := map[string]any{}
	var byProcsSec, byProcsSpread []float64
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		trials := make([]float64, ingestTrials)
		for i := range trials {
			sec, digest := applyBatched(ops)
			if digest != refDigest {
				runtime.GOMAXPROCS(origProcs)
				return fmt.Errorf("procs=%d: batched ingest diverged from the one-op reference", p)
			}
			trials[i] = sec
		}
		sort.Float64s(trials)
		med, sp := trials[ingestTrials/2], trials[ingestTrials-1]/trials[0]
		byProcs[fmt.Sprintf("%d", p)] = med
		spread[fmt.Sprintf("%d", p)] = sp
		byProcsSec = append(byProcsSec, med)
		byProcsSpread = append(byProcsSpread, sp)
	}
	runtime.GOMAXPROCS(origProcs)

	// Coalesce ratios, measured in a separate untimed pass so the timed
	// runs above never pay for telemetry.
	obs.Default.Reset()
	obs.Enable()
	applyBatched(ops)
	ratios := map[string]float64{}
	for _, sub := range []string{"h", "hp", "hat"} {
		ratios[sub] = obs.Default.Ratio(
			`stream_coalesce_ops_in_total{substream="`+sub+`"}`,
			`stream_coalesce_keys_out_total{substream="`+sub+`"}`)
	}
	obs.Disable()

	sketchSec := benchSketchWrites(seed)

	rec := map[string]any{
		"meta":                         runMeta(procs, start),
		"bench":                        "stream_ingest",
		"n_ops":                        n,
		"guesses":                      guesses,
		"gomaxprocs":                   runtime.GOMAXPROCS(0),
		"seed":                         seed,
		"ops_per_sec_per_op":           perOpSec,
		"ops_per_sec_batched":          batchedSec,
		"ops_per_sec_batched_by_procs": byProcs,
		"batched_by_procs_spread":      spread,
		"ops_per_sec_dup8":             dup8Sec,
		"speedup":                      batchedSec / perOpSec,
		"coalesce_ratio":               ratios,
		"sketch_updates_per_sec":       sketchSec,
	}
	fmt.Printf("stream ingest  (n=%d ops, %d guesses, GOMAXPROCS=%d, NumCPU=%d)\n", n, guesses, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("  one-op Apply      : %12.0f ops/sec\n", perOpSec)
	fmt.Printf("  batched           : %12.0f ops/sec  (%.2fx)\n", batchedSec, batchedSec/perOpSec)
	for i, p := range procs {
		fmt.Printf("  batched, procs=%-3d: %12.0f ops/sec  (%.2fx over procs=%d; median of %d, max/min %.2f)\n",
			p, byProcsSec[i], byProcsSec[i]/byProcsSec[0], procs[0], ingestTrials, byProcsSpread[i])
	}
	fmt.Printf("  dup8              : %12.0f ops/sec\n", dup8Sec)
	fmt.Printf("  coalesce ratio    : h=%.1f hp=%.1f hat=%.1f (ops in / keys out)\n",
		ratios["h"], ratios["hp"], ratios["hat"])
	fmt.Printf("  sketch writes     : %12.0f upd/sec\n", sketchSec)
	return writeBench("BENCH_ingest.json", rec)
}

// benchSketchWrites isolates the sketch write: an ensemble of s-sparse
// recovery sketches (s=2048, payload dim 2 — the point-sketch shape of
// the ingest bench config, whose ~650 KB slabs dominate the ensemble's
// slab bytes) fed 4096-row batches through UpdateScaledN, the production
// write (at this size its rule picks the bucket-ordered layout). The
// batch round-robins across the ensemble so every slab visit starts
// cold, like the real ingest fan-out over ~25 guess instances × levels ×
// substreams — hammering one hot slab would hide the misses the layout
// choice is about. The ordered-vs-scatter A/B itself is
// BenchmarkSparseUpdate's /ordered and /lanes sub-benchmarks in
// internal/sketch. Returns updates/sec.
func benchSketchWrites(seed int64) float64 {
	const s, pd, n, sketches, rounds = 2048, 2, 4096, 64, 3
	rng := rand.New(rand.NewSource(seed))
	ens := make([]*sketch.SparseRecovery, sketches)
	for i := range ens {
		ens[i] = sketch.NewSparseRecovery(rng, s, 0.01, pd)
	}
	keys := make([]uint64, n)
	payload := make([]int64, n*pd)
	deltas := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		deltas[i] = 1
		payload[i*pd] = rng.Int63n(1 << 12)
		payload[i*pd+1] = rng.Int63n(1 << 12)
	}
	// Slab writes are additive with value-independent cost, so the timed
	// run reuses the warmed ensemble as it stands; no reset is needed.
	run := func() float64 {
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for _, sr := range ens {
				sr.UpdateScaledN(keys, payload, deltas)
			}
		}
		return float64(n*sketches*rounds) / time.Since(t0).Seconds()
	}
	run() // warm the page tables and scratch allocations
	return run()
}

// benchExtract measures coreset-extraction throughput over the guess
// ensemble: cold (decode caches dropped before every extraction, decoded
// across the worker pool), serial cold (single-worker lazy baseline),
// warm (epoch-cache hits only) and incremental (alternating small-batch
// ingest and extraction: the query splices the dirty levels onto their
// cached decode bases instead of re-peeling the whole ensemble). Prints
// a short report and records it as BENCH_extract.json.
func benchExtract(scale float64, seed int64) error {
	start := time.Now()
	n := int(4096 * scale)
	if n < 1024 {
		n = 1024
	}
	rng := rand.New(rand.NewSource(seed))
	ps, _ := workload.Mixture{N: n, D: 2, Delta: 1 << 12, K: 4, Spread: 20, Skew: 2, NoiseFrac: 0.05}.Generate(rng)
	a, err := streambalance.NewAutoStream(streambalance.StreamConfig{
		Dim: 2, Delta: 1 << 12,
		Params:       streambalance.Params{K: 4, Seed: seed},
		CellSparsity: 512, PointSparsity: 4 * 4096,
	}, 4)
	if err != nil {
		return err
	}
	ops := make([]streambalance.Op, n)
	for i, p := range ps {
		ops[i] = streambalance.Op{P: p}
	}
	a.Apply(ops)
	if _, err := a.Result(); err != nil {
		return fmt.Errorf("extraction failed on the bench ensemble: %w", err)
	}

	// The modes are timed round-robin — one cold, one serial, one warm
	// round per pass — so machine-noise phases (GC, CPU steal on shared
	// hosts) are spread over all three instead of biasing whichever block
	// ran during them. At GOMAXPROCS=1 cold and serial run the same code
	// path and should measure about the same.
	const rounds = 10
	modes := []struct {
		name string
		prep func() error // untimed setup for the round
		f    func() error // the timed extraction
	}{
		{"cold", nil, func() error {
			a.DropDecodeCache()
			_, err := a.Result()
			return err
		}},
		{"serial", nil, func() error {
			a.DropDecodeCache()
			_, err := a.ResultSerial()
			return err
		}},
		// The serial round just dropped the caches; re-warm untimed so the
		// timed call measures pure cache-hit extraction.
		{"warm", func() error { _, err := a.Result(); return err }, func() error {
			_, err := a.Result()
			return err
		}},
	}
	elapsed := make([]time.Duration, len(modes))
	for i := 0; i < rounds; i++ {
		for m, mode := range modes {
			if mode.prep != nil {
				if err := mode.prep(); err != nil {
					return fmt.Errorf("%s extraction: %w", mode.name, err)
				}
			}
			t0 := time.Now()
			if err := mode.f(); err != nil {
				return fmt.Errorf("%s extraction: %w", mode.name, err)
			}
			elapsed[m] += time.Since(t0)
		}
	}
	coldSec := rounds / elapsed[0].Seconds()
	serialSec := rounds / elapsed[1].Seconds()
	warmSec := rounds / elapsed[2].Seconds()

	// Mixed ingest + query — the serving pattern the differential decode
	// targets. Each round re-ingests a small batch of the original ops
	// (same keys, so the sketch support never grows and every level stays
	// decodable), samples how many decode units the batch dirtied, then
	// times only the extraction, which splices the dirty levels onto
	// their cached bases instead of re-peeling the ensemble. The pre-warm
	// between rounds is untimed: a serving deployment keeps the ensemble
	// warm between queries.
	const incrBatch = 16
	const incrRounds = 30
	a.WarmDecodeCache()
	var incrElapsed time.Duration
	var dirtySum, totalSum int
	for i := 0; i < incrRounds; i++ {
		lo := (i * incrBatch) % n
		hi := lo + incrBatch
		if hi > n {
			hi = n
		}
		a.Apply(ops[lo:hi])
		d, tot := a.DirtyLevels()
		dirtySum += d
		totalSum += tot
		// Collect the churn of the untimed scaffolding (batch ingest +
		// pre-warm) before starting the clock: the ensemble's live heap is
		// large at this geometry, so a concurrent GC cycle triggered by
		// scaffolding garbage spans several rounds and its mark assists
		// would otherwise tax allocations inside the ~15 ms timed query,
		// inflating it 3-4×.
		runtime.GC()
		t0 := time.Now()
		if _, err := a.Result(); err != nil {
			return fmt.Errorf("incremental extraction: %w", err)
		}
		incrElapsed += time.Since(t0)
		a.WarmDecodeCache()
	}
	incrSec := incrRounds / incrElapsed.Seconds()
	dirtyRatio := float64(dirtySum) / float64(totalSum)

	rec := map[string]any{
		"meta":                     runMeta(nil, start),
		"bench":                    "stream_extract",
		"n_points":                 n,
		"guesses":                  len(a.Guesses()),
		"gomaxprocs":               runtime.GOMAXPROCS(0),
		"seed":                     seed,
		"extracts_per_sec_cold":    coldSec,
		"extracts_per_sec_serial":  serialSec,
		"extracts_per_sec_warm":    warmSec,
		"warm_speedup_over_cold":   warmSec / coldSec,
		"cold_speedup_over_serial": coldSec / serialSec,

		"extracts_per_sec_incremental":  incrSec,
		"incremental_speedup_over_cold": incrSec / coldSec,
		"incremental_batch_ops":         incrBatch,
		"dirty_level_ratio":             dirtyRatio,
	}
	fmt.Printf("stream extract (n=%d points, %d guesses, GOMAXPROCS=%d)\n", n, len(a.Guesses()), runtime.GOMAXPROCS(0))
	fmt.Printf("  cold    : %12.2f extracts/sec  (%.2fx over serial)\n", coldSec, coldSec/serialSec)
	fmt.Printf("  serial  : %12.2f extracts/sec\n", serialSec)
	fmt.Printf("  warm    : %12.2f extracts/sec  (%.2fx over cold)\n", warmSec, warmSec/coldSec)
	fmt.Printf("  incr    : %12.2f extracts/sec  (%.2fx over cold; batch=%d ops, %.4f dirty-level ratio)\n",
		incrSec, incrSec/coldSec, incrBatch, dirtyRatio)
	return writeBench("BENCH_extract.json", rec)
}

// benchAssign measures capacitated-assignment throughput on the
// E1-shaped workload — one fixed point set, many center sets, an
// ascending capacity sweep per center set — in three modes: fresh (the
// historical per-call FractionalCost, graph and distances rebuilt every
// solve), arena (one assign.Solver reused cold: skeleton and distance
// block amortized per center set) and warm (the same engine with
// warm-started sweeps). Prints a short report and records it as
// BENCH_assign.json. Modes are timed round-robin like benchExtract so
// machine-noise phases spread over all three.
func benchAssign(scale float64, seed int64) error {
	start := time.Now()
	n := int(512 * scale)
	if n < 64 {
		n = 64
	}
	const k = 4
	const centerSets = 25
	rng := rand.New(rand.NewSource(seed))
	ps, _ := workload.Mixture{N: n, D: 2, Delta: 1 << 12, K: k, Spread: 20, Skew: 2, NoiseFrac: 0.05}.Generate(rng)
	ws := geo.UnitWeights(ps)
	zs := make([][]geo.Point, centerSets)
	for i := range zs {
		zs[i] = solve.SeedKMeansPP(rng, ws, k, 2)
	}
	base := geo.TotalWeight(ws) / k
	caps := []float64{1.02 * base, 1.05 * base, 1.1 * base, 1.2 * base, 1.4 * base, 1.8 * base, 2.5 * base, 4 * base}
	solves := centerSets * len(caps)

	run := func(f func(Z []geo.Point, t float64) float64) float64 {
		var sink float64
		for _, Z := range zs {
			for _, t := range caps {
				sink += f(Z, t)
			}
		}
		return sink
	}
	arena := assign.NewSolver()
	arena.SetWarmStart(false)
	arena.Bind(ws, 2)
	warm := assign.NewSolver()
	warm.Bind(ws, 2)
	modes := []struct {
		name string
		f    func() float64
	}{
		{"fresh", func() float64 {
			return run(func(Z []geo.Point, t float64) float64 {
				c, _, _ := assign.FractionalCost(ws, Z, t, 2)
				return c
			})
		}},
		{"arena", func() float64 {
			var sink float64
			for _, Z := range zs {
				arena.SetCenters(Z)
				for _, t := range caps {
					c, _ := arena.Fractional(t)
					sink += c
				}
			}
			return sink
		}},
		{"warm", func() float64 {
			var sink float64
			for _, Z := range zs {
				warm.SetCenters(Z)
				for _, t := range caps {
					c, _ := warm.Fractional(t)
					sink += c
				}
			}
			return sink
		}},
	}

	const rounds = 3
	elapsed := make([]time.Duration, len(modes))
	for i := 0; i < rounds; i++ {
		for m, mode := range modes {
			t0 := time.Now()
			mode.f()
			elapsed[m] += time.Since(t0)
		}
	}
	freshSec := float64(rounds*solves) / elapsed[0].Seconds()
	arenaSec := float64(rounds*solves) / elapsed[1].Seconds()
	warmSec := float64(rounds*solves) / elapsed[2].Seconds()

	rec := map[string]any{
		"meta":                  runMeta(nil, start),
		"bench":                 "assign_sweep",
		"n_points":              n,
		"k":                     k,
		"center_sets":           centerSets,
		"caps_per_set":          len(caps),
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"seed":                  seed,
		"solves_per_sec_fresh":  freshSec,
		"solves_per_sec_arena":  arenaSec,
		"solves_per_sec_warm":   warmSec,
		"arena_speedup":         arenaSec / freshSec,
		"warm_speedup":          warmSec / freshSec,
		"warm_speedup_vs_arena": warmSec / arenaSec,
	}
	fmt.Printf("assign sweep   (n=%d points, k=%d, %d center sets × %d caps, GOMAXPROCS=%d)\n",
		n, k, centerSets, len(caps), runtime.GOMAXPROCS(0))
	fmt.Printf("  fresh   : %12.2f solves/sec\n", freshSec)
	fmt.Printf("  arena   : %12.2f solves/sec  (%.2fx over fresh)\n", arenaSec, arenaSec/freshSec)
	fmt.Printf("  warm    : %12.2f solves/sec  (%.2fx over fresh)\n", warmSec, warmSec/freshSec)
	return writeBench("BENCH_assign.json", rec)
}

// benchDist measures distributed-protocol wall-clock on a fixed 8-machine
// split: the serial reference driver vs the pipelined concurrent driver at
// 1, 4 and 8 workers, all over the default in-memory transport. It also
// records the measured wire bits against the closed-form formula
// accounting. Modes are timed round-robin like benchExtract; every run is
// checked to produce the serial run's exact bit count (the drivers are
// bit-identical by contract). Prints a short report and records it as
// BENCH_dist.json.
func benchDist(scale float64, seed int64) error {
	start := time.Now()
	n := int(16384 * scale)
	if n < 2048 {
		n = 2048
	}
	const k, s = 4, 8
	rng := rand.New(rand.NewSource(seed))
	ps, _ := workload.Mixture{N: n, D: 2, Delta: 1 << 12, K: k, Spread: 20, Skew: 2, NoiseFrac: 0.05}.Generate(rng)
	machines := make([]geo.PointSet, s)
	for i, p := range ps {
		machines[i%s] = append(machines[i%s], p)
	}
	cfg := dist.Config{Dim: 2, Delta: 1 << 12, Params: coreset.Params{K: k, Seed: seed}}

	ref, err := dist.RunSerial(machines, cfg)
	if err != nil {
		return err
	}
	modes := []struct {
		name string
		f    func() (*dist.Report, error)
	}{
		{"serial", func() (*dist.Report, error) { return dist.RunSerial(machines, cfg) }},
		{"workers1", func() (*dist.Report, error) {
			c := cfg
			c.Workers = 1
			return dist.Run(machines, c)
		}},
		{"workers4", func() (*dist.Report, error) {
			c := cfg
			c.Workers = 4
			return dist.Run(machines, c)
		}},
		{"workers8", func() (*dist.Report, error) {
			c := cfg
			c.Workers = 8
			return dist.Run(machines, c)
		}},
	}
	const rounds = 5
	elapsed := make([]time.Duration, len(modes))
	for i := 0; i < rounds; i++ {
		for m, mode := range modes {
			t0 := time.Now()
			rep, err := mode.f()
			elapsed[m] += time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s protocol run: %w", mode.name, err)
			}
			if rep.Bits != ref.Bits || rep.Coreset.Size() != ref.Coreset.Size() {
				return fmt.Errorf("%s protocol run diverged from the serial reference", mode.name)
			}
		}
	}
	secs := make([]float64, len(modes))
	for m := range modes {
		secs[m] = elapsed[m].Seconds() / rounds
	}

	rec := map[string]any{
		"meta":              runMeta(nil, start),
		"bench":             "dist_protocol",
		"n_points":          n,
		"machines":          s,
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"seed":              seed,
		"wire_bits":         ref.Bits,
		"formula_bits":      ref.FormulaBits,
		"wire_over_formula": float64(ref.Bits) / float64(ref.FormulaBits),
		"sec_serial":        secs[0],
		"sec_workers1":      secs[1],
		"sec_workers4":      secs[2],
		"sec_workers8":      secs[3],
		"speedup_workers4":  secs[0] / secs[2],
		"speedup_workers8":  secs[0] / secs[3],
	}
	fmt.Printf("dist protocol  (n=%d points, s=%d machines, GOMAXPROCS=%d)\n", n, s, runtime.GOMAXPROCS(0))
	fmt.Printf("  wire    : %12d bits  (%.3fx of the %d-bit formula accounting)\n",
		ref.Bits, float64(ref.Bits)/float64(ref.FormulaBits), ref.FormulaBits)
	fmt.Printf("  serial  : %12.1f ms\n", secs[0]*1e3)
	for m := 1; m < len(modes); m++ {
		fmt.Printf("  %-8s: %12.1f ms  (%.2fx over serial)\n", modes[m].name, secs[m]*1e3, secs[0]/secs[m])
	}
	return writeBench("BENCH_dist.json", rec)
}

// parseProcs parses the -procs flag: a comma-separated ascending list of
// GOMAXPROCS settings for the batched-ingest scaling column.
func parseProcs(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		var p int
		if _, err := fmt.Sscanf(f, "%d", &p); err != nil || p < 1 {
			return nil, fmt.Errorf("bad -procs entry %q", f)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, errors.New("-procs is empty")
	}
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			return nil, fmt.Errorf("-procs must be ascending, got %v", out)
		}
	}
	return out, nil
}

func main() {
	scale := flag.Float64("scale", 1.0, "instance size multiplier")
	seed := flag.Int64("seed", 1, "random seed")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,E5); empty = all")
	bench := flag.Bool("bench", false, "measure ingest and extraction throughput, writing BENCH_ingest.json and BENCH_extract.json")
	procs := flag.String("procs", "1,2,4,8", "comma-separated ascending GOMAXPROCS matrix for the batched-ingest by-procs column")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/pprof/ and /debug/vars on this address (e.g. :6060) while running")
	metricsDump := flag.String("metrics", "", "dump a final telemetry snapshot to stderr: text (Prometheus exposition) or json")
	diffMode := flag.Bool("diff", false, "compare two BENCH_*.json records (bcbench -diff old.json new.json) and exit 1 on regression")
	tol := flag.Float64("tol", 0.6, "regression tolerance for -diff: gated metrics fail below this fraction of the old value")
	outdir := flag.String("outdir", "", "directory for -bench BENCH_*.json output (default: current directory)")
	flag.Parse()
	benchOutDir = *outdir

	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bcbench -diff [-tol 0.6] old.json new.json")
			os.Exit(2)
		}
		regs, err := runDiff(os.Stdout, flag.Arg(0), flag.Arg(1), *tol)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if regs > 0 {
			os.Exit(1)
		}
		return
	}

	switch *metricsDump {
	case "", "text", "json":
	default:
		fmt.Fprintf(os.Stderr, "-metrics must be text or json, got %q\n", *metricsDump)
		os.Exit(2)
	}
	if *metricsDump != "" {
		obs.Enable()
		obs.Trace.Enable()
	}
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bcbench: debug server on http://%s (/metrics, /debug/pprof/, /debug/vars, /debug/spans)\n", addr)
	}
	dumpMetrics := func() {
		var err error
		switch *metricsDump {
		case "text":
			err = obs.Default.WriteProm(os.Stderr)
		case "json":
			err = obs.Default.WriteJSON(os.Stderr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *bench {
		if err := benchHash(*seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		procsMatrix, err := parseProcs(*procs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := benchIngest(*scale, *seed, procsMatrix); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := benchExtract(*scale, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := benchAssign(*scale, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := benchDist(*scale, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dumpMetrics()
		return
	}

	cfg := experiments.Cfg{Seed: *seed, Scale: *scale}
	runners := map[string]func(experiments.Cfg) *metrics.Table{
		"E1":  experiments.E1CoresetQuality,
		"E2":  experiments.E2CoresetSize,
		"E3":  experiments.E3StreamingSpace,
		"E4":  experiments.E4Deletions,
		"E5":  experiments.E5Distributed,
		"E6":  experiments.E6EndToEnd,
		"E7":  experiments.E7Baselines,
		"E8":  experiments.E8BuildTime,
		"E9":  experiments.E9Separation,
		"E10": experiments.E10Ablation,
		"E11": experiments.E11HighDim,
		"E12": experiments.E12GuessSelection,
		"E13": experiments.E13AssignmentCounting,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}

	var ids []string
	if *only == "" {
		ids = order
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if runners[id] == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", id, strings.Join(order, ","))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	fmt.Printf("streambalance experiment suite  (scale=%.2g seed=%d)\n\n", *scale, *seed)
	for _, id := range ids {
		t0 := time.Now()
		tb := runners[id](cfg)
		tb.Render(os.Stdout)
		fmt.Printf("   [%s completed in %s]\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
	dumpMetrics()
}
