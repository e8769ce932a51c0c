package stream

import (
	"sync"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
)

// Test oracles: the reference write paths every ingest equivalence suite
// compares Apply (and so Insert/Delete, which are one-op Applies) against.
// None calls Apply or applyShards. Each walks the distinct write units —
// a rate-1 sketch shared by several slots is written once, as Apply
// writes it.
//
//   - oracleReplay writes each op, one at a time, through
//     Storing.Insert/Delete of every unit whose sampler keeps it: the
//     scalar per-op path, which derives its own fingerprint key and cell
//     keys instead of reading the batch columns.
//   - oracleUncoalesced applies a batch's sampled rows to the units
//     without key-coalescing — one UpdateKeyedScaledN row per selected
//     op, payload sign·p — the reference the coalescer is pinned to, and
//     the A/B partner of BenchmarkStreamIngest.

// oracleUpdate writes one op into every unit of us whose sampler keeps
// it, through Storing.Insert/Delete. Net counters are the caller's.
func oracleUpdate(us units, fp *hashing.Fingerprint, p geo.Point, del bool) {
	key := fp.Key(p)
	for _, u := range us {
		if !u.samp.Sample(key) {
			continue
		}
		if del {
			u.st.Delete(p)
		} else {
			u.st.Insert(p)
		}
	}
}

// oracleReplay feeds ops to s one at a time through oracleUpdate.
func oracleReplay(s *Stream, ops []Op) {
	for _, op := range ops {
		s.n += netCount([]Op{op})
		oracleUpdate(s.units, s.fp, op.P, op.Delete)
	}
}

// oracleSelect feeds one op to the ensemble's net counts and guess
// selectors.
func oracleSelect(a *Auto, op Op) {
	net := netCount([]Op{op})
	a.n += net
	for _, s := range a.streams {
		s.n += net
	}
	if op.Delete {
		a.reservoir.Delete(op.P)
		a.costBound.Delete(op.P)
	} else {
		a.reservoir.Insert(op.P)
		a.costBound.Insert(op.P)
	}
}

// oracleReplayAuto feeds ops to every distinct unit of a one at a time,
// keeping the ensemble's net counts and guess selectors in step.
func oracleReplayAuto(a *Auto, ops []Op) {
	for _, op := range ops {
		oracleSelect(a, op)
		oracleUpdate(a.units, a.fp, op.P, op.Delete)
	}
}

// oracleUncoalesced applies a built batch to unit u without
// key-coalescing: the sampled ops are gathered into (key, sign·payload,
// sign) columns, one row per op, and written with UpdateKeyedScaledN.
func oracleUncoalesced(u unit, g *grid.Grid, b *batch) {
	L, dim := g.L, g.Dim
	n := len(b.ops)
	sel := make([]bool, n)
	u.samp.SampleN(sel, b.fkey)
	var keys []uint64
	var payload, deltas []int64
	sh := uint(L - u.level)
	for t := 0; t < n; t++ {
		if !sel[t] {
			continue
		}
		if u.sub == subHat {
			keys = append(keys, b.fkey[t])
			for _, v := range b.ops[t].P {
				payload = append(payload, b.sign[t]*v)
			}
		} else {
			keys = append(keys, b.cellKey[t*(L+1)+u.level])
			for _, v := range b.baseIdx[t*dim : (t+1)*dim] {
				payload = append(payload, b.sign[t]*(v>>sh))
			}
		}
		deltas = append(deltas, b.sign[t])
	}
	if u.sub == subHat {
		u.st.UpdateKeyedScaledN(nil, nil, keys, payload, deltas)
	} else {
		u.st.UpdateKeyedScaledN(keys, payload, nil, nil, deltas)
	}
}

// oracleApplyUncoalesced is Stream.Apply with the uncoalesced write.
func oracleApplyUncoalesced(s *Stream, ops []Op) {
	if len(ops) == 0 {
		return
	}
	b := new(batch)
	b.build(s.g, s.fp, ops)
	for _, u := range s.units {
		oracleUncoalesced(u, s.g, b)
	}
	s.n += netCount(ops)
}

// oracleApplyUncoalescedAuto is Auto.Apply with the uncoalesced write,
// one goroutine per distinct unit: under -race, two writers of one
// sketch would be reported.
func oracleApplyUncoalescedAuto(a *Auto, ops []Op) {
	if len(ops) == 0 {
		return
	}
	b := new(batch)
	b.build(a.g, a.fp, ops)
	for _, op := range ops {
		oracleSelect(a, op)
	}
	var wg sync.WaitGroup
	for _, u := range a.units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			oracleUncoalesced(u, a.g, b)
		}()
	}
	wg.Wait()
}

// applyChunked feeds ops to apply in consecutive chunks of at most
// chunk ops.
func applyChunked(apply func([]Op), ops []Op, chunk int) {
	for i := 0; i < len(ops); i += chunk {
		apply(ops[i:min(i+chunk, len(ops))])
	}
}
