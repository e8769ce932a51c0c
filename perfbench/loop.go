package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"streambalance"
	"streambalance/internal/obs"
)

// bench is one workload run: the ensemble under test, the op source
// that feeds it, and the correctness log. A single goroutine drives it
// in a closed loop — each call returns before the next is issued — while
// the library's own pools use GOMAXPROCS.
type bench struct {
	w    spec
	seed int64
	src  *source
	a    *streambalance.AutoStream
	last *streambalance.Coreset // most recent successful coreset
	// lastFresh reports that no op was applied since last was taken.
	lastFresh bool

	queries  int      // Result calls so far, for the solve cadence
	failures []string // correctness violations; any one fails the run
	spans    []obs.Event
	dropped  int64 // spans the tracer ring overwrote
}

// reset points the bench at a fresh instance: a new op source and no
// ensemble yet.
func (b *bench) reset(seed int64) {
	b.seed, b.src = seed, newSource(seed)
	b.a, b.last, b.lastFresh, b.queries = nil, nil, false, 0
}

// pass is one timed phase's samples. Only the calls are timed; op
// generation and bookkeeping between rounds are not.
type pass struct {
	traced bool
	ops    int64
	busy   time.Duration // Σ round time: the wall time of the timed phase
	calls  int

	apply  []time.Duration
	result []time.Duration // every Result call, failed ones included
	solve  []time.Duration // every SolveCapacitated call

	// Latency samples without a failed call; a failed call counts as
	// missing any latency limit, so percentiles see each as +Inf.
	rounds      []time.Duration // what the caller waits per round
	coreset     []time.Duration
	centers     []time.Duration // Result + SolveCapacitated on solve rounds
	roundFails  int
	resultFails int
	solveFails  int

	dirtyRatio []float64 // traced passes: dirty/total decode units before each query
	// alloc passes: heap bytes allocated per layer; nil otherwise.
	alloc map[string]uint64
}

// merge appends q's samples to p.
func (p *pass) merge(q *pass) {
	p.ops += q.ops
	p.busy += q.busy
	p.calls += q.calls
	p.rounds = append(p.rounds, q.rounds...)
	p.apply = append(p.apply, q.apply...)
	p.result = append(p.result, q.result...)
	p.solve = append(p.solve, q.solve...)
	p.coreset = append(p.coreset, q.coreset...)
	p.centers = append(p.centers, q.centers...)
	p.roundFails += q.roundFails
	p.resultFails += q.resultFails
	p.solveFails += q.solveFails
}

// setup builds the ensemble, applies the initial load in one batch and
// takes the first (warming) Result; it returns the set-up wall time and
// whether that Result succeeded.
func (b *bench) setup() (time.Duration, bool, error) {
	b.a = nil
	runtime.GC()
	t0 := time.Now()
	a, err := streambalance.NewAutoStream(streamConfig(b.seed), guessRatio)
	if err != nil {
		return 0, false, fmt.Errorf("set-up: %w", err)
	}
	a.Apply(b.src.load())
	cs, err := a.Result()
	d := time.Since(t0)
	b.a = a
	if err != nil {
		return d, false, nil
	}
	b.checkWeight(cs)
	b.last, b.lastFresh = cs, true
	return d, true, nil
}

// run drives the closed loop for the given number of rounds. A workload
// without per-round queries ends with one Result. A traced pass records
// spans; an alloc pass counts the heap bytes each layer call allocates.
func (b *bench) run(rounds int, traced, allocs bool) *pass {
	p := &pass{traced: traced}
	if allocs {
		p.alloc = map[string]uint64{}
	}
	for r := 0; r < rounds; r++ {
		b.round(p, b.src.next(b.w), b.w.query)
		if traced {
			b.drainSpans()
		}
	}
	if !b.w.query {
		b.round(p, nil, true)
		if traced {
			b.drainSpans()
		}
	}
	return p
}

// round issues one Apply (when ops is non-empty), then optionally one
// Result and, on every solveEvery-th query, one SolveCapacitated.
func (b *bench) round(p *pass, ops []streambalance.Op, query bool) {
	var root obs.Span
	if p.traced {
		root = obs.Trace.StartRoot("bench.round")
	}
	fails := p.resultFails + p.solveFails
	t0 := time.Now()
	if len(ops) > 0 {
		p.apply = append(p.apply, b.call(p, root, "stream.apply", func() { b.a.Apply(ops) }))
		p.ops += int64(len(ops))
		p.calls++
		b.lastFresh = false
	}
	if query {
		b.query(p, root)
	}
	d := time.Since(t0)
	p.busy += d
	if p.resultFails+p.solveFails > fails {
		p.roundFails++
	} else {
		p.rounds = append(p.rounds, d)
	}
	root.End()
}

func (b *bench) query(p *pass, root obs.Span) {
	if p.traced {
		dirty, total := b.a.DirtyLevels()
		p.dirtyRatio = append(p.dirtyRatio, ratio(float64(dirty), float64(total)))
	}
	var cs *streambalance.Coreset
	var err error
	d := b.call(p, root, "stream.result", func() { cs, err = b.a.Result() })
	p.result = append(p.result, d)
	p.calls++
	b.queries++
	if err != nil {
		// Counted, never retried.
		p.resultFails++
		return
	}
	p.coreset = append(p.coreset, d)
	b.checkWeight(cs)
	b.last, b.lastFresh = cs, true
	if b.w.solveEvery == 0 || b.queries%b.w.solveEvery != 0 {
		return
	}
	n := len(b.src.live)
	var sol streambalance.Solution
	var ok bool
	ds := b.call(p, root, "solve.capacitated", func() {
		sol, ok = streambalance.SolveCapacitated(cs.Points, clusters, capacity(n), streambalance.SolveOptions{})
	})
	p.solve = append(p.solve, ds)
	p.calls++
	if !ok {
		p.solveFails++
		return
	}
	p.centers = append(p.centers, d+ds)
	if len(sol.Centers) != clusters || math.IsNaN(sol.Cost) || math.IsInf(sol.Cost, 0) {
		b.failf("solve returned %d centers with cost %v", len(sol.Centers), sol.Cost)
	}
}

// call times f. In a traced pass it also records a child span of root;
// in an alloc pass, the heap bytes f allocated.
func (b *bench) call(p *pass, root obs.Span, layer string, f func()) time.Duration {
	var a0 uint64
	if p.alloc != nil {
		a0 = allocBytes()
	}
	var sp obs.Span
	if p.traced {
		sp = obs.Trace.StartChild(root.Context(), layer)
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End()
	if p.alloc != nil {
		p.alloc[layer] += allocBytes() - a0
	}
	return d
}

// checkWeight applies the 30% total-weight rule to a successful coreset.
func (b *bench) checkWeight(cs *streambalance.Coreset) {
	n := float64(len(b.src.live))
	if w := cs.TotalWeight(); math.Abs(w-n) > 0.3*n+1 {
		b.failf("coreset weight %.1f for %d live points breaks the 30%% rule", w, len(b.src.live))
	}
}

func (b *bench) failf(format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// drainSpans moves the tracer's finished spans into the bench's own
// memory, so the fixed-size ring never overwrites one.
func (b *bench) drainSpans() {
	b.spans = append(b.spans, obs.Trace.Events()...)
	b.dropped += obs.Trace.Dropped()
	obs.Trace.Reset()
}

// allocBytes is the cumulative count of heap bytes allocated
// (MemStats.TotalAlloc). It stops the world and flushes every P's
// allocation cache, so only an alloc pass, whose timings go unused,
// calls it.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

var gcSample = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// cpuSeconds returns the process's cumulative GC and total CPU seconds
// as the runtime estimates them.
func cpuSeconds() (gc, total float64) {
	metrics.Read(gcSample)
	return gcSample[0].Value.Float64(), gcSample[1].Value.Float64()
}
