// Fork/merge example: every sketch in the streaming algorithm is LINEAR,
// so a logical stream can be split across workers — goroutines here,
// machines in production — each feeding its own Fork, and the forks
// merged back into a state bit-identical to a single sequential pass
// (Lemma 4.2's mergability, the same property Theorem 4.7 builds the
// distributed protocol on, and the merge-and-reduce composition of
// Braverman et al., arXiv:1706.03887).
//
// Scenario: a sensor feed with churn (readings are retracted when a
// sensor is recalibrated) is split into disjoint slices; each goroutine
// Forks the stream and Applies its slice, the forks are Merged back, and
// the merged StateDigest is checked against a serial Apply of the whole
// feed. Within one process, Apply's own worker pool already spreads a
// batch across cores; Fork/Merge is for ingest that is split before it
// reaches one Stream.
package main

import (
	"fmt"
	"math/rand"
	"sync"

	"streambalance"
	"streambalance/internal/workload"
)

func main() {
	const (
		k       = 3
		delta   = 1 << 10
		n       = 8000
		workers = 4
	)
	rng := rand.New(rand.NewSource(17))
	readings, _ := workload.Mixture{
		N: n, D: 2, Delta: delta, K: k, Spread: 9, Skew: 2, NoiseFrac: 0.04,
	}.Generate(rng)
	// 10% of readings are later retracted (sensor recalibration).
	retracted := readings[:n/10]
	ops := make([]streambalance.Op, 0, n+n/10)
	for _, p := range readings {
		ops = append(ops, streambalance.Op{P: p})
	}
	for _, p := range retracted {
		ops = append(ops, streambalance.Op{P: p, Delete: true})
	}
	// Shuffle the insertions so the retracted readings land in every slice.
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	est, err := streambalance.EstimateOPT(readings, k, 2, 1)
	if err != nil {
		panic(err)
	}
	cfg := streambalance.StreamConfig{
		Dim: 2, Delta: delta,
		O:      streambalance.GuessFromEstimate(est),
		Params: streambalance.Params{K: k, Seed: 9},
		// Sized for ~10k survivors: at a couple of levels every surviving
		// point is sampled (φ_i = 1), so the point sketches must hold them.
		CellSparsity: 4096, PointSparsity: 16384,
	}

	// The serial road: one Apply over the whole feed.
	serial, err := streambalance.NewStream(cfg)
	if err != nil {
		panic(err)
	}
	serial.Apply(ops)

	// The fork/merge road: worker w Applies the w-th contiguous slice to
	// its own fork. A slice may delete a reading another slice inserted —
	// linearity makes the partition irrelevant to the merged state.
	merged, err := streambalance.NewStream(cfg)
	if err != nil {
		panic(err)
	}
	forks := make([]*streambalance.Stream, workers)
	for i := range forks {
		forks[i] = merged.Fork()
	}
	var wg sync.WaitGroup
	per := (len(ops) + workers - 1) / workers
	for w := range forks {
		lo, hi := min(w*per, len(ops)), min((w+1)*per, len(ops))
		wg.Add(1)
		go func() {
			defer wg.Done()
			forks[w].Apply(ops[lo:hi])
		}()
	}
	wg.Wait()
	for _, f := range forks {
		merged.Merge(f)
	}
	if merged.StateDigest() != serial.StateDigest() {
		panic("fork/merge and serial Apply disagree — linearity violated")
	}
	fmt.Printf("%d updates over %d forks merged; state digest %016x equals the serial Apply's\n",
		len(ops), workers, merged.StateDigest())

	cs, err := merged.Result()
	if err != nil {
		panic(err)
	}
	fmt.Printf("surviving readings: %d; coreset: %d weighted points (weight %.0f)\n",
		merged.N(), cs.Size(), cs.TotalWeight())

	// Balanced segmentation of the surviving readings.
	t := 1.15 * float64(merged.N()) / k
	sol, ok := streambalance.SolveCapacitated(cs.Points, k, t*1.3, streambalance.SolveOptions{Seed: 4})
	if !ok {
		panic("infeasible")
	}
	fmt.Printf("\nbalanced segments (capacity %.0f readings each):\n", t)
	for i, z := range sol.Centers {
		fmt.Printf("  segment %d at %v, weight %.0f\n", i, z, sol.Sizes[i])
	}
}
