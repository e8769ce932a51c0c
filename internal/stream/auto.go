package stream

import (
	"errors"
	"math"
	"math/rand"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
	"streambalance/internal/obs"
)

// Auto runs the guess enumeration of Theorem 4.5: one Stream instance per
// guess o on a geometric grid covering [1, Δ^d·(√d·Δ)^r] (Algorithm 2
// line 1), all fed the same updates in parallel. At the end of the stream
// the smallest guess whose instance succeeds — and whose coreset carries
// approximately the right total weight — is selected.
//
// The paper selects o with a parallel streaming 2-approximation of OPT
// [HSYZ18]; the weight-sanity rule here is the practical stand-in (a
// far-too-large o loses points because the root cell is not heavy, a
// far-too-small o FAILs its sketches), documented in DESIGN.md.
type Auto struct {
	streams []*Stream
	guesses []float64
	n       int64

	// All guess instances share one grid (hence one random shift and one
	// cell-key fingerprint) and one sampling/point fingerprint, so the
	// ingestion pipeline computes each op's key column once for the whole
	// ensemble. Each instance keeps private samplers and sub-rate-1
	// sketches; its rate-1 sketches are the ensemble's shared ones
	// (rate1). The per-instance guarantees of Theorem 4.5 are marginal
	// over the hash functions, so sharing the grid and the rate-1
	// sketches only correlates failures across guesses — it never
	// changes any single instance's distribution (DESIGN.md §1).
	g     *grid.Grid
	fp    *hashing.Fingerprint
	units units  // every distinct sketch of the ensemble, once
	b     *batch // reusable columnar buffer for Apply (not goroutine-safe)

	reservoir *Reservoir // OPT-estimate sample for guess selection (insert-only)
	costBound *CostBound // deletion-proof cell-counting bound ([HSYZ18]-style)
	params    coreset.Params
	delta     int64
}

// NewAuto creates the parallel guess grid with ratio oFactor between
// consecutive guesses (≥ 2; the paper uses 2, 4 halves the instance
// count with one extra factor of guess slack).
func NewAuto(cfg Config, oFactor float64) (*Auto, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if oFactor < 2 {
		oFactor = 2
	}
	// Upper bound of the guess range: Δ^d·(√d·Δ)^r.
	logUpper := float64(cfg.Dim)*math.Log2(float64(cfg.Delta)) +
		cfg.Params.R*math.Log2(math.Sqrt(float64(cfg.Dim))*float64(cfg.Delta))
	upper := math.Exp2(logUpper)
	rngCB := rand.New(rand.NewSource(cfg.Params.Seed ^ 0xcb))
	gCB := grid.New(cfg.Delta, cfg.Dim, rngCB)
	rngShared := rand.New(rand.NewSource(cfg.Params.Seed))
	a := &Auto{
		g:         grid.New(cfg.Delta, cfg.Dim, rngShared),
		fp:        hashing.NewFingerprint(rngShared),
		reservoir: NewReservoir(1000, cfg.Params.Seed^0x5eed),
		costBound: NewCostBound(rngCB, gCB, cfg.Params.R, 256),
		params:    cfg.Params,
		delta:     cfg.Delta,
	}
	// The shared rate-1 sketches draw from one ensemble-level seed.
	r1 := newRate1(rand.New(rand.NewSource(cfg.Params.Seed^0x1a7e)), a.g.L)
	var all units
	for o, i := 1.0, 0; o <= upper; o, i = o*oFactor, i+1 {
		c := cfg
		c.O = o
		// Decorrelate instance samplers and sketches while keeping the
		// whole ensemble reproducible from one seed.
		c.Params.Seed = cfg.Params.Seed + int64(i)*1_000_003
		st := newShared(c, a.g, a.fp, rand.New(rand.NewSource(c.Params.Seed)), r1)
		a.streams = append(a.streams, st)
		a.guesses = append(a.guesses, o)
		all = append(all, st.slots()...)
	}
	a.units = all.distinct()
	obs.G("stream_guess_instances").SetInt(int64(len(a.streams)))
	mSharedSketches.SetInt(int64(len(all) - len(a.units)))
	return a, nil
}

// Guesses returns the guess grid.
func (a *Auto) Guesses() []float64 { return a.guesses }

// Insert feeds (p, +) to every guess instance as a one-op Apply.
func (a *Auto) Insert(p geo.Point) { a.Apply([]Op{{P: p}}) }

// Delete feeds (p, −) to every guess instance as a one-op Apply.
func (a *Auto) Delete(p geo.Point) { a.Apply([]Op{{P: p, Delete: true}}) }

// Apply feeds a batch of updates to every guess instance through the
// shared-key ingestion pipeline (ingest.go): the per-op key columns are
// computed once — not once per guess — and each distinct sketch of the
// ensemble is one unit of work for a worker pool sized to the machine,
// so a rate-1 sketch shared by many guesses is written once. Linearity
// of all sketch state makes the result bit-identical to writing the ops
// into every sketch one at a time.
//
// The batch is built — which validates every point's dimension — before
// any state changes, so a malformed batch panics with the selectors and
// the sketches still in step.
func (a *Auto) Apply(ops []Op) {
	if len(ops) == 0 {
		return
	}
	if a.b == nil {
		a.b = new(batch)
	}
	a.b.build(a.g, a.fp, ops)
	countBatch(ops)
	for i := range ops {
		if ops[i].Delete {
			a.reservoir.Delete(ops[i].P)
			a.costBound.Delete(ops[i].P)
		} else {
			a.reservoir.Insert(ops[i].P)
			a.costBound.Insert(ops[i].P)
		}
	}
	net := netCount(ops)
	a.n += net
	for _, s := range a.streams {
		s.n += net
	}
	applyShards(a.b, a.g, a.units)
}

// StateDigest folds the sketch state of every distinct sketch of the
// ensemble into one 64-bit value (see Stream.StateDigest).
func (a *Auto) StateDigest() uint64 { return a.units.digest(uint64(a.n)) }

// Bytes sums the sketch state of every distinct sketch of the ensemble
// plus the guess selectors — the full space cost of the enumeration. A
// rate-1 sketch shared by many guesses counts once.
func (a *Auto) Bytes() int64 { return a.costBound.Bytes() + a.units.bytes() }

// ErrNoGuessSucceeded is returned when every guess instance FAILed or
// produced a weight-inconsistent coreset.
var ErrNoGuessSucceeded = errors.New("stream: no guess o succeeded")

// Result (guess selection + extraction) lives in extract.go.
