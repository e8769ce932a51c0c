package main

import (
	"math"
	"math/rand"

	"streambalance"
	"streambalance/internal/workload"
)

// The common set-up of every workload: the bcstream ensemble (cell
// sparsity 512, point sparsity 2048, guess ratio 8 — 14 guesses at
// Δ = 1024) over the bcgen mixture (skew 2, 5% noise, spread Δ/270) in
// d = 2 with k = 4, a live set of 8,000 points, and capacity 1.3·n/k for
// every solve.
const (
	dim           = 2
	delta         = 1024
	clusters      = 4
	liveSize      = 8000
	cellSparsity  = 512
	pointSparsity = 2048
	guessRatio    = 8
	capSlack      = 1.3
	skew          = 2
	noiseFrac     = 0.05
)

// spread is the per-coordinate standard deviation of a mixture
// component, bcgen's default Δ/270.
const spread = float64(delta) / 270

// spec is one named workload: the shape of a closed-loop round.
type spec struct {
	name string
	why  string
	// batch is the number of ops per Apply call.
	batch int
	// churn rounds are half fresh inserts, half deletes of random live
	// points; otherwise every op re-inserts a point of the initial load.
	churn bool
	// query issues Result after every Apply; otherwise one Result ends
	// the timed phase.
	query bool
	// solveEvery runs SolveCapacitated on every solveEvery-th coreset;
	// 0 means never.
	solveEvery int
	// rate is the nominal rounds per second, as measured on a shared
	// 2-vCPU host: --seconds times rate is a run's fixed round count.
	rate float64
}

var specs = []spec{
	{
		name:  "firehose",
		why:   "4,096-op churn batches and one Result at the end: ingest (key build, sampling, coalescing, sketch writes, serial reservoir loop) does nearly all the work",
		batch: 4096, churn: true, rate: 13.5,
	},
	{
		name:  "query-hot",
		why:   "16 re-inserts of live points then Result each round, no deletions: estimate-guess extraction dominates and the sketch support stays fixed",
		batch: 16, query: true, rate: 53,
	},
	{
		name:  "serve-churn",
		why:   "512-op churn batches, Result every batch, SolveCapacitated on every 8th coreset: scan-path selection and the capacitated solve",
		batch: 512, churn: true, query: true, solveEvery: 8, rate: 7.7,
	},
}

// rounds is the number of timed rounds a run of the given nominal
// length makes, split evenly over parts (instances or passes), at least
// one per part. The count depends on the arguments alone, never on the
// host's speed, so a seed always yields the same calls: which of them
// FAIL (ROADMAP item 4 hits some seeds) is then the same on every run.
func (w spec) rounds(seconds float64, parts int) int {
	return max(1, int(math.Round(seconds*w.rate))/parts)
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// streamConfig is the ensemble configuration; the sketch seed follows
// the workload seed so that different seeds also draw different hash
// functions.
func streamConfig(seed int64) streambalance.StreamConfig {
	return streambalance.StreamConfig{
		Dim:           dim,
		Delta:         delta,
		Params:        streambalance.Params{K: clusters, R: 2, Seed: seed},
		CellSparsity:  cellSparsity,
		PointSparsity: pointSparsity,
	}
}

// source generates a workload's op stream from its seed and tracks the
// live multiset the stream leaves behind. It runs outside every timer.
type source struct {
	rng     *rand.Rand
	centers []streambalance.Point
	cum     []float64 // cumulative component masses
	initial []streambalance.Point
	live    []streambalance.Point // one entry per live copy
	ops     []streambalance.Op    // reused round buffer
}

func newSource(seed int64) *source {
	rng := rand.New(rand.NewSource(seed))
	m := workload.Mixture{N: liveSize, D: dim, Delta: delta, K: clusters, Spread: spread, Skew: skew, NoiseFrac: noiseFrac}
	pts, centers := m.Generate(rng)
	s := &source{rng: rng, centers: centers, initial: pts}
	tot := 0.0
	for j := 0; j < clusters; j++ {
		tot += math.Pow(skew, -float64(j))
	}
	acc := 0.0
	for j := 0; j < clusters; j++ {
		acc += math.Pow(skew, -float64(j)) / tot
		s.cum = append(s.cum, acc)
	}
	s.live = append([]streambalance.Point(nil), pts...)
	return s
}

// load returns the initial load as one insert batch.
func (s *source) load() []streambalance.Op {
	ops := make([]streambalance.Op, len(s.initial))
	for i, p := range s.initial {
		ops[i] = streambalance.Op{P: p}
	}
	return ops
}

// fresh draws a new point from the same mixture as the initial load.
func (s *source) fresh() streambalance.Point {
	if s.rng.Float64() < noiseFrac {
		return workload.UniformPoint(s.rng, dim, delta)
	}
	u := s.rng.Float64()
	j := 0
	for j < clusters-1 && u > s.cum[j] {
		j++
	}
	p := make(streambalance.Point, dim)
	for c := range p {
		v := math.Round(float64(s.centers[j][c]) + s.rng.NormFloat64()*spread)
		p[c] = int64(math.Max(1, math.Min(delta, v)))
	}
	return p
}

// next generates one round's batch. The returned slice is reused by the
// following call.
func (s *source) next(w spec) []streambalance.Op {
	s.ops = s.ops[:0]
	for i := 0; i < w.batch; i++ {
		switch {
		case !w.churn:
			// Drawn with replacement from the initial load, so the
			// distinct support never grows.
			p := s.initial[s.rng.Intn(len(s.initial))]
			s.live = append(s.live, p)
			s.ops = append(s.ops, streambalance.Op{P: p})
		case i%2 == 0:
			p := s.fresh()
			s.live = append(s.live, p)
			s.ops = append(s.ops, streambalance.Op{P: p})
		default:
			j := s.rng.Intn(len(s.live))
			p := s.live[j]
			last := len(s.live) - 1
			s.live[j] = s.live[last]
			s.live = s.live[:last]
			s.ops = append(s.ops, streambalance.Op{P: p, Delete: true})
		}
	}
	return s.ops
}

// capacity is the per-center capacity t = 1.3·n/k for n live points.
func capacity(n int) float64 { return capSlack * float64(n) / clusters }

// fold turns a multiset into weighted points, one per distinct point
// with its multiplicity as weight, in first-seen order.
func fold(ps []streambalance.Point) []streambalance.Weighted {
	idx := make(map[[dim]int64]int, len(ps))
	var out []streambalance.Weighted
	for _, p := range ps {
		var key [dim]int64
		copy(key[:], p)
		if i, ok := idx[key]; ok {
			out[i].W++
			continue
		}
		idx[key] = len(out)
		out = append(out, streambalance.Weighted{P: p, W: 1})
	}
	return out
}
