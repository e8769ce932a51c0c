package main

import (
	"fmt"
	"math"

	"streambalance"
)

// liveDigest builds a fresh ensemble, feeds it the live multiset as one
// insert batch, and returns its state digest. Every sketch is linear in
// the stream, so an ensemble that saw any churn must end with exactly
// this digest when only live survives.
func liveDigest(cfg streambalance.StreamConfig, live []streambalance.Point) (uint64, error) {
	a, err := streambalance.NewAutoStream(cfg, guessRatio)
	if err != nil {
		return 0, fmt.Errorf("digest check: %w", err)
	}
	ops := make([]streambalance.Op, len(live))
	for i, p := range live {
		ops[i] = streambalance.Op{P: p}
	}
	a.Apply(ops)
	return a.StateDigest(), nil
}

// checkDigest compares the churned ensemble with a fresh one fed the
// surviving multiset.
func (b *bench) checkDigest() error {
	want, err := liveDigest(streamConfig(b.seed), b.src.live)
	if err != nil {
		return err
	}
	if got := b.a.StateDigest(); got != want {
		b.failf("state digest %016x after churn, %016x for the surviving multiset", got, want)
	}
	return nil
}

// quality solves on the final coreset and compares the capacitated cost
// of those centers on the coreset with their cost on the full live data
// (duplicates folded into weights): coresetErr = |cost_t(Q, Z) /
// cost_t(Q′, Z, w′) − 1| and weightErr = |Σw′ − n| / n. ok is false when
// the final query failed or the solve was infeasible.
func quality(cs *streambalance.Coreset, live []streambalance.Point) (coresetErr, weightErr float64, ok bool) {
	n := len(live)
	t := capacity(n)
	sol, ok := streambalance.SolveCapacitated(cs.Points, clusters, t, streambalance.SolveOptions{})
	if !ok {
		return 0, 0, false
	}
	full := streambalance.CapacitatedCost(fold(live), sol.Centers, t, 2)
	core := streambalance.CapacitatedCost(cs.Points, sol.Centers, t, 2)
	if math.IsInf(full, 0) || math.IsInf(core, 0) || core == 0 {
		return 0, 0, false
	}
	return math.Abs(full/core - 1), math.Abs(cs.TotalWeight()-float64(n)) / float64(n), true
}
