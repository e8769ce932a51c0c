// Parallel, incrementally-cached coreset extraction (the query path
// behind Stream.Result and Auto.Result).
//
// Extraction — Theorem 4.5's query step (Algorithm 4 steps 4–6) — is a
// pile of independent sparse-recovery decodes followed by a cheap serial
// assembly: every (guess × level × substream) Storing sketch peels on its
// own state only, mirroring the sparse-recovery query structure of
// Braverman et al. (arXiv:1706.03887), which is embarrassingly parallel.
// The pipeline exploits that in three ways:
//
//   - Guess-parallel lazy scan (Auto.Result): the scan's candidate
//     guesses are extracted concurrently, one guess per worker, each by
//     the lazy serial path that stops at the guess's first failing
//     level, while the estimate guess runs on the caller with its ĥ
//     stage decoded across the pool. The selection rule reads the
//     outcomes in its serial order and stops claiming once a guess is
//     selected, so results are bit-identical to ResultSerial and at most
//     workers−1 extractions per query are wasted. No guess is decoded
//     speculatively beyond that window.
//
//   - Single-instance parallel decode (Stream.Result): before the serial
//     assembly runs, the sketches it will consult are decoded across a
//     GOMAXPROCS-sized worker pool (the shard-pool shape of ingest.go).
//     Decoding only warms each sketch's epoch-tagged cache — the assembly
//     then executes the exact serial logic against free cache hits, so
//     results are bit-identical to the serial path by construction.
//
//   - Epoch cache + differential decode: each Storing tags its decode
//     with an update epoch (sketch.Storing); a repeated Result during a
//     long stream touches only levels whose state changed since the last
//     extraction, and a changed level re-peels only the residual against
//     its cached base — splicing the delta onto the cached item lists —
//     instead of the whole slab (DESIGN.md §13). Merging a fork dirties
//     only the levels the fork actually wrote (pristine levels are
//     skipped outright) and dirtied levels keep their base for the next
//     splice. Cache memory is derived state, excluded from Bytes
//     (DESIGN.md §6) and released by DropDecodeCache.
package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/hashing"
	"streambalance/internal/obs"
	"streambalance/internal/partition"
	"streambalance/internal/sketch"
	"streambalance/internal/solve"
)

// extractWorkers sizes the decode pool to the machine.
func extractWorkers() int { return runtime.GOMAXPROCS(0) }

// warmStorings decodes the given sketches across a worker pool of the
// given size, populating each one's epoch-tagged cache. Sketches whose
// cache is already fresh are skipped, so re-warming after a partial
// extraction (or a warm periodic call) spawns no goroutines at all.
// Each sketch is decoded by exactly one worker and decoding touches only
// that sketch's state, so the pool needs no locks beyond the barrier.
// Every worker owns one sketch.DecodeArena for the whole drain — the
// worklist decoder's slab/queue/mark scratch is reused across all the
// sketches that worker decodes instead of reallocated per decode.
func warmStorings(units []*sketch.Storing, workers int) {
	pending := make([]*sketch.Storing, 0, len(units))
	for _, st := range units {
		if st != nil && !st.CacheFresh() {
			pending = append(pending, st)
		}
	}
	if len(pending) == 0 {
		return
	}
	mExtractDecodes.Add(int64(len(pending)))
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers <= 1 {
		arena := sketch.NewDecodeArena()
		for _, st := range pending {
			st.ResultArena(arena)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := sketch.NewDecodeArena()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pending) {
					return
				}
				pending[i].ResultArena(arena)
			}
		}()
	}
	wg.Wait()
}

// planTargets appends the h/h′ cell sketches of s — the decode units the
// partition/plan stage may consult — to dst.
func (s *Stream) planTargets(dst []*sketch.Storing) []*sketch.Storing {
	for i := 0; i <= s.g.L; i++ {
		if i <= s.g.L-1 {
			dst = append(dst, s.hStore[i])
		}
		dst = append(dst, s.hpStore[i])
	}
	return dst
}

// Result decodes the sketches and assembles the coreset (steps 4–6 of
// Algorithm 4): heavy cells from the h-substream estimates, part masses
// from the h′-substream, coreset points from the ĥ-substream. It does
// not modify sketch state (N, Bytes, StateDigest are untouched), so it
// may be called repeatedly — e.g. periodically during a long stream —
// and the epoch cache makes such warm calls cost proportional to what
// changed since the previous extraction, not to total sketch state.
func (s *Stream) Result() (*coreset.Coreset, error) { return s.resultWith(extractWorkers()) }

// ResultSerial is Result restricted to one worker: the lazy serial
// decode path, kept as the equivalence baseline for tests and benches.
// (It still reads and warms the epoch cache.)
func (s *Stream) ResultSerial() (*coreset.Coreset, error) { return s.resultWith(1) }

func (s *Stream) resultWith(workers int) (*coreset.Coreset, error) {
	return s.extract(workers, workers, sketch.NewDecodeArena())
}

// extract is resultWith with the two warm stages sized separately —
// planWorkers for the h/h′ stage, hatWorkers for the ĥ stage, 1 meaning
// lazy — and every lazy (cache-miss) decode running out of the given
// arena; the warm pools bring their own per-worker arenas.
func (s *Stream) extract(planWorkers, hatWorkers int, arena *sketch.DecodeArena) (*coreset.Coreset, error) {
	if s.n < 0 {
		return nil, errors.New("stream: more deletions than insertions")
	}
	mExtracts.Inc()
	t0 := obs.NowNano()
	sp := obs.StartSpan("stream.extract")
	sp.AttrFloat("o", s.cfg.O)
	sp.AttrInt("workers", int64(max(planWorkers, hatWorkers)))
	defer func() {
		mExtractNS.ObserveSince(t0)
		publishSpace(s.units, 0)
		sp.End()
	}()
	// Stage 1: decode every cell sketch the partition stage may consult,
	// in parallel. The serial assembly below decides lazily which levels
	// matter; pre-decoding the rest only wastes a bounded peel per sketch
	// (and caches its FAIL), never changes what the assembly sees.
	if planWorkers > 1 {
		warmStorings(s.planTargets(nil), planWorkers)
	}
	part, pl, err := s.plan(arena)
	if err != nil {
		return nil, err
	}
	// Levels that actually host included parts.
	needLevel := make([]bool, s.g.L+1)
	for id := range pl.Included {
		needLevel[id.Level] = true
	}
	// Stage 2: decode only the ĥ point sketches of needed levels — these
	// are the large sketches, and the plan has already pruned the rest.
	if hatWorkers > 1 {
		units := make([]*sketch.Storing, 0, s.g.L+1)
		for i := 0; i <= s.g.L; i++ {
			if needLevel[i] && s.phi[i] != 0 && !slices.Contains(units, s.hatStore[i]) {
				units = append(units, s.hatStore[i])
			}
		}
		warmStorings(units, hatWorkers)
	}
	return s.assemble(part, pl, needLevel, arena)
}

// plan decodes the h/h′ substreams (lazily, via the epoch caches) and
// runs Algorithm 1 + Algorithm 2's inclusion plan. Cache-miss decodes
// run their scratch out of arena.
func (s *Stream) plan(arena *sketch.DecodeArena) (*partition.Partition, *coreset.Plan, error) {
	g := s.g
	p := s.cfg.Params

	rootCell := partition.CellTau{Index: make([]int64, g.Dim), Tau: float64(s.n)}
	rootKey := g.KeyOf(-1, rootCell.Index)
	root := map[uint64]partition.CellTau{rootKey: rootCell}

	// Count sources decode each level's sketch lazily: BuildLazy consults
	// a level only while it can still contain heavy or crucial cells, so
	// on the serial path sketches of levels below the deepest heavy cell
	// — which can be arbitrarily over-full — are never decoded.
	decodeCells := func(st *sketch.Storing, rate float64) (map[uint64]partition.CellTau, bool) {
		res, ok := st.ResultArena(arena)
		if !ok {
			return nil, false
		}
		m := make(map[uint64]partition.CellTau, len(res.Cells))
		for _, cc := range res.Cells {
			m[cc.Key] = partition.CellTau{Index: cc.Index, Tau: float64(cc.Count) / rate}
		}
		return m, true
	}
	counts := func(level int) (map[uint64]partition.CellTau, bool) {
		if level == -1 {
			return root, true
		}
		return decodeCells(s.hStore[level], s.psi[level])
	}
	partCounts := func(level int) (map[uint64]partition.CellTau, bool) {
		if level == -1 {
			return root, true
		}
		return decodeCells(s.hpStore[level], s.psiP[level])
	}

	part, err := partition.BuildLazy(g, p.R, s.cfg.O, counts, partCounts)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrSketchFail, err)
	}
	pl := coreset.BuildPlan(part, p)
	if pl.Failed() {
		return nil, nil, fmt.Errorf("%w: %s", ErrPlanFail, pl.FailWhy)
	}
	return part, pl, nil
}

// assemble recovers the ĥ-substream points of every needed level and
// keeps those landing in included parts, weighted by 1/φ_i. Cache-miss
// decodes run their scratch out of arena.
func (s *Stream) assemble(part *partition.Partition, pl *coreset.Plan, needLevel []bool, arena *sketch.DecodeArena) (*coreset.Coreset, error) {
	g := s.g
	cs := &coreset.Coreset{O: s.cfg.O, Grid: g, Part: part, Plan: pl, Params: s.cfg.Params}
	for i := 0; i <= g.L; i++ {
		if !needLevel[i] || s.phi[i] == 0 {
			continue
		}
		res, ok := s.hatStore[i].ResultArena(arena)
		if !ok {
			return nil, fmt.Errorf("%w: ĥ-substream level %d", ErrSketchFail, i)
		}
		for _, pc := range res.Points {
			id, ok := part.PartAt(pc.P, i)
			if !ok || !pl.Included[id] {
				continue
			}
			cs.Points = append(cs.Points, geo.Weighted{
				P: pc.P,
				W: float64(pc.Count) / s.phi[i],
			})
			cs.Levels = append(cs.Levels, i)
		}
	}
	return cs, nil
}

// DropDecodeCache discards every sketch's decode cache, forcing the
// next extraction to re-decode from the slabs (the cold path).
// Benchmarks use it to separate cold and warm extraction cost; it never
// changes any result, N, Bytes or StateDigest.
func (s *Stream) DropDecodeCache() { s.units.dropCache() }

// DecodeCacheBytes reports the memory currently held by decode caches
// and differential-decode bases. This is derived state — excluded from
// Bytes, the Theorem 4.5 space accounting — see DESIGN.md §6.
func (s *Stream) DecodeCacheBytes() int64 { return s.units.cacheBytes() }

// WarmDecodeCache decodes every unit whose cache is not fresh, across
// the worker pool — the serving pre-warm: after it returns, a query
// that consults any unit gets a cache hit, and the next dirty batch is
// answered by differential decodes against the freshly set bases. It
// never changes any result (decoding is read-only on sketch state).
func (s *Stream) WarmDecodeCache() { s.units.warm() }

// CacheStats sums the per-level decode-cache counters (hits, splices,
// merge keeps/skips, …) over every decode unit of the stream.
func (s *Stream) CacheStats() sketch.CacheStats { return s.units.cacheStats() }

// DirtyLevels reports how many of the stream's decode units (distinct
// level × substream sketches) no longer have a fresh cached decode —
// the units the next extraction has to touch — against the total unit
// count. A small dirty/total ratio is exactly the regime where the
// differential decode turns a query into a handful of residual peels.
func (s *Stream) DirtyLevels() (dirty, total int) { return s.units.dirty() }

// The walks over distinct units behind every state accessor of Stream
// and Auto: a shared sketch is written, decoded, counted and digested
// once, however many slots it fills.

// digest folds n and every unit's sketch state into one 64-bit value.
func (us units) digest(n uint64) uint64 {
	d := hashing.Mix64(n)
	for _, u := range us {
		d = hashing.Mix64(d ^ u.st.Digest())
	}
	return d
}

// bytesBySub sums the units' sketch state by substream.
func (us units) bytesBySub() (by [3]int64) {
	for _, u := range us {
		by[u.sub] += u.st.Bytes()
	}
	return by
}

// bytes sums the units' sketch state.
func (us units) bytes() int64 {
	by := us.bytesBySub()
	return by[subH] + by[subHp] + by[subHat]
}

// cacheBytes sums the units' decode-cache and base memory.
func (us units) cacheBytes() int64 {
	var b int64
	for _, u := range us {
		b += u.st.CacheBytes()
	}
	return b
}

// cacheStats sums the units' decode-cache counters.
func (us units) cacheStats() sketch.CacheStats {
	var total sketch.CacheStats
	for _, u := range us {
		total = addCacheStats(total, u.st.CacheStats())
	}
	return total
}

// dirty counts the units without a fresh cached decode, and all units.
func (us units) dirty() (dirty, total int) {
	for _, u := range us {
		if !u.st.CacheFresh() {
			dirty++
		}
	}
	return dirty, len(us)
}

// dropCache discards every unit's decode cache.
func (us units) dropCache() {
	for _, u := range us {
		u.st.DropCache()
	}
}

// warm decodes every stale unit across the worker pool.
func (us units) warm() {
	sts := make([]*sketch.Storing, len(us))
	for k, u := range us {
		sts[k] = u.st
	}
	warmStorings(sts, extractWorkers())
}

// publishSpace sets the space gauges when telemetry is on: the Theorem
// 4.5-accounted sketch state of us plus cb bytes of guess selectors, in
// total and by substream, and the derived-state decode cache.
func publishSpace(us units, cb int64) {
	if !obs.Enabled() {
		return
	}
	by := us.bytesBySub()
	mSketchBytes.SetInt(by[subH] + by[subHp] + by[subHat] + cb)
	for k, name := range [...]string{"h", "hp", "hat"} {
		vSketchBytes.SetInt(by[k], name)
	}
	vSketchBytes.SetInt(cb, "costbound")
	mCacheBytes.SetInt(us.cacheBytes())
}

// addCacheStats is the field-wise sum of two CacheStats.
func addCacheStats(a, b sketch.CacheStats) sketch.CacheStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Stale += b.Stale
	a.Drops += b.Drops
	a.MergeDrops += b.MergeDrops
	a.Splices += b.Splices
	a.SpliceFallbacks += b.SpliceFallbacks
	a.MergeKeeps += b.MergeKeeps
	a.MergeSkips += b.MergeSkips
	return a
}

// Result selects a guess. On insertion-only streams the reservoir gives
// a constant-factor OPT estimate, and the largest guess ≤ estimate/4 is
// tried first — the selection rule Theorem 4.5 prescribes. If that guess
// fails (or deletions dirtied the reservoir), selection falls back to
// the smallest guess whose Result succeeds with a coreset total weight
// within 30% of the exact point count (both far-off-OPT failure modes
// break this: sketch FAIL below, lost mass above).
//
// Every guess is extracted at most once per call. With more than one
// worker the scan's guesses are extracted concurrently by the lazy path
// of Stream.ResultSerial (see guessScan), starting while the estimate
// guess runs, and the estimate guess decodes its ĥ stage in parallel;
// the selection rule still reads the outcomes strictly in its serial
// order, so the selected guess, its coreset and the error text are
// identical to ResultSerial's.
func (a *Auto) Result() (*coreset.Coreset, error) { return a.resultWith(extractWorkers()) }

// ResultSerial is Result restricted to one worker — the fully serial
// lazy selection/extraction path (equivalence baseline).
func (a *Auto) ResultSerial() (*coreset.Coreset, error) { return a.resultWith(1) }

func (a *Auto) resultWith(workers int) (*coreset.Coreset, error) {
	if a.n < 0 {
		return nil, errors.New("stream: more deletions than insertions")
	}
	sp := obs.StartSpan("stream.select")
	sp.AttrInt("guesses", int64(len(a.streams)))
	defer func() {
		publishSpace(a.units, a.costBound.Bytes())
		sp.End()
	}()
	est := -1
	if a.reservoir.Clean() && len(a.reservoir.Sample()) >= 32 {
		est = a.estimateGuess()
	}
	// The fallback scan (deletions dirtied the reservoir, or the estimate
	// guess failed) ascends the guesses, pruned from above by the
	// deletion-proof cell-count bound — guesses beyond UpperBound/4
	// exceed OPT by at least the bound's looseness and can only lose
	// quality, so they are never considered. The smallest surviving guess
	// wins: o ≤ OPT is the side the analysis needs (Lemma 3.17); a
	// too-small o merely enlarges the coreset.
	guessCap := math.Inf(1)
	if upper, ok := a.costBound.UpperBound(a.params.K, 0); ok && upper > 0 {
		guessCap = upper / 4
	}
	selected := func(via string, cs *coreset.Coreset) (*coreset.Coreset, error) {
		sp.Attr("via", via)
		sp.AttrFloat("o", cs.O)
		mGuessSelected.Set(cs.O)
		markGuess(cs.O, "selected")
		return cs, nil
	}
	// The scan's candidates, in the order it consumes them; the estimate
	// guess is left out, its outcome reused at its scan position.
	var scan []int
	for i := range a.streams {
		if a.guesses[i] > guessCap {
			break
		}
		if i != est {
			scan = append(scan, i)
		}
	}
	arena := sketch.NewDecodeArena()
	sc := a.startScan(scan, workers, est >= 0, arena)
	defer sc.stop()

	// The estimate guess runs on this goroutine while the pool starts on
	// the scan. Its plan is lazy; only its ĥ stage — the large sketches
	// of the levels the plan needs, which assembly reads up to the first
	// FAIL — is decoded across the workers: that is where a lone guess's
	// parallelism lies when it is selected.
	var estErr error
	if est >= 0 {
		var cs *coreset.Coreset
		cs, estErr = a.streams[est].extract(1, workers, arena)
		if a.admit(est, cs, estErr) {
			return selected("estimate", cs)
		}
	}
	var firstErr error
	pos := 0
	for i := range a.streams {
		if a.guesses[i] > guessCap {
			break
		}
		err := estErr
		if i != est {
			var cs *coreset.Coreset
			cs, err = sc.take(pos)
			pos++
			if a.admit(i, cs, err) {
				return selected("scan", cs)
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	sp.Attr("via", "none")
	if firstErr != nil {
		return nil, fmt.Errorf("%w (first failure: %v)", ErrNoGuessSucceeded, firstErr)
	}
	return nil, ErrNoGuessSucceeded
}

// estimateGuess returns the index of the largest guess ≤ est/4, where
// est is the reservoir's OPT estimate scaled to the stream, or −1 when
// every guess exceeds it.
func (a *Auto) estimateGuess() int {
	sample := a.reservoir.Sample()
	rng := rand.New(rand.NewSource(a.params.Seed ^ 0x0e57))
	est := solve.EstimateOPT(rng, geo.UnitWeights(sample), a.params.K, a.params.R, a.delta, 2) *
		float64(a.n) / float64(len(sample))
	target := est / 4
	best := -1
	for i, o := range a.guesses {
		if o <= target {
			best = i
		}
	}
	return best
}

// admit applies the selection rule to guess i's extraction outcome —
// success with a coreset weight within 30% of the live count — and
// records the attempt in the guess metrics.
func (a *Auto) admit(i int, cs *coreset.Coreset, err error) bool {
	mGuessAttempts.Inc()
	markGuess(a.guesses[i], "attempt")
	if err != nil {
		mGuessFails.Inc()
		markGuess(a.guesses[i], "fail")
		return false
	}
	if w := cs.TotalWeight(); math.Abs(w-float64(a.n)) > 0.3*float64(a.n)+1 {
		mGuessRejects.Inc()
		markGuess(a.guesses[i], "reject")
		return false
	}
	return true
}

// guessScan is the outcome table of one Auto.Result scan: the
// candidate guesses in the order the selection rule consumes them, each
// extracted at most once by the lazy serial path (plan → BuildLazy →
// assemble).
//
// With one worker, take extracts on demand. Otherwise a pool of workers
// claims positions in order, each with its own DecodeArena reused across
// the guesses it extracts, while the selector waits on the outcomes in
// order. The selector counts as a worker while it extracts the estimate
// guess, so the pool then runs at most workers−1 claims; afterwards
// claims stay within `workers` positions of the one the selector awaits.
// Either way, when a guess is selected at most workers−1 extractions
// above it were started in vain. stop ends the claims and waits for
// every worker.
type guessScan struct {
	a     *Auto
	order []int               // guess indices by position
	arena *sketch.DecodeArena // the one-worker path's

	// Pool state; ready == nil on the one-worker path.
	mu      sync.Mutex
	cond    sync.Cond
	cs      []*coreset.Coreset
	err     []error
	ready   []bool
	workers int
	claimed int // positions handed to workers
	limit   int // claims stay below this
	stopped bool
	wg      sync.WaitGroup
}

// startScan starts the scan over order; selectorBusy reports that the
// selector is about to extract the estimate guess itself. arena serves
// the one-worker path.
func (a *Auto) startScan(order []int, workers int, selectorBusy bool, arena *sketch.DecodeArena) *guessScan {
	sc := &guessScan{a: a, order: order, arena: arena}
	workers = min(workers, len(order))
	if workers <= 1 {
		return sc
	}
	sc.cond.L = &sc.mu
	sc.cs = make([]*coreset.Coreset, len(order))
	sc.err = make([]error, len(order))
	sc.ready = make([]bool, len(order))
	sc.workers, sc.limit = workers, workers
	if selectorBusy {
		sc.limit = workers - 1
	}
	sc.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go sc.work()
	}
	return sc
}

func (sc *guessScan) work() {
	defer sc.wg.Done()
	arena := sketch.NewDecodeArena()
	for {
		sc.mu.Lock()
		for !sc.stopped && sc.claimed < len(sc.order) && sc.claimed >= sc.limit {
			sc.cond.Wait()
		}
		if sc.stopped || sc.claimed >= len(sc.order) {
			sc.mu.Unlock()
			return
		}
		pos := sc.claimed
		sc.claimed++
		sc.mu.Unlock()

		cs, err := sc.a.streams[sc.order[pos]].extract(1, 1, arena)

		sc.mu.Lock()
		sc.cs[pos], sc.err[pos], sc.ready[pos] = cs, err, true
		sc.cond.Broadcast()
		sc.mu.Unlock()
	}
}

// take returns the outcome at position pos; positions are taken in
// increasing order.
func (sc *guessScan) take(pos int) (*coreset.Coreset, error) {
	if sc.ready == nil {
		return sc.a.streams[sc.order[pos]].extract(1, 1, sc.arena)
	}
	sc.mu.Lock()
	if sc.limit < pos+sc.workers {
		sc.limit = pos + sc.workers
		sc.cond.Broadcast()
	}
	for !sc.ready[pos] {
		sc.cond.Wait()
	}
	sc.mu.Unlock()
	return sc.cs[pos], sc.err[pos]
}

// stop ends the claims and returns once every worker has exited.
func (sc *guessScan) stop() {
	if sc.ready == nil {
		return
	}
	sc.mu.Lock()
	sc.stopped = true
	sc.cond.Broadcast()
	sc.mu.Unlock()
	sc.wg.Wait()
}

// DropDecodeCache discards the decode cache of every distinct sketch of
// the ensemble (see Stream.DropDecodeCache).
func (a *Auto) DropDecodeCache() { a.units.dropCache() }

// DecodeCacheBytes sums the decode-cache memory over every distinct
// sketch of the ensemble. Deliberately not part of Bytes — caches are
// derived state.
func (a *Auto) DecodeCacheBytes() int64 { return a.units.cacheBytes() }

// WarmDecodeCache pre-warms every distinct sketch of the ensemble (see
// Stream.WarmDecodeCache).
func (a *Auto) WarmDecodeCache() { a.units.warm() }

// CacheStats sums the decode-cache counters over every distinct sketch
// of the ensemble.
func (a *Auto) CacheStats() sketch.CacheStats { return a.units.cacheStats() }

// DirtyLevels reports the stale and total distinct units of the
// ensemble (see Stream.DirtyLevels).
func (a *Auto) DirtyLevels() (dirty, total int) { return a.units.dirty() }
