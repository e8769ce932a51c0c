package main

import (
	"runtime"
	"sync"
	"time"
)

// calWords sizes the calibration kernel's working set (64 MiB), well
// beyond the last-level cache, like the sketch slabs.
const calWords = 8 << 20

// calibrate times a fixed kernel that does not touch the library and
// returns the median of five timings in milliseconds. The kernel does
// random read-modify-writes over its working set, driven by a
// multiply-add generator, on GOMAXPROCS goroutines: the mix of the
// ingest and decode paths. A shared host can change speed within
// minutes (CPU steal, neighbours on the same cores); round latency
// divided by this time cancels much of that drift. The working set is
// touched before timing and dropped after, so heap_bytes never counts
// it.
func calibrate() float64 {
	slab := make([]uint64, calWords)
	procs := runtime.GOMAXPROCS(0)
	calKernel(slab, procs)
	var ts []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		calKernel(slab, procs)
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts)
}

func calKernel(slab []uint64, procs int) {
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(part []uint64, x uint64) {
			defer wg.Done()
			n := uint64(len(part))
			for i := 0; i < (1<<22)/procs; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				part[(x>>17)%n] += x
			}
		}(slab[g*len(slab)/procs:(g+1)*len(slab)/procs], uint64(g)+1)
	}
	wg.Wait()
}
