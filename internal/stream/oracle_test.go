package stream

import (
	"sync"

	"streambalance/internal/geo"
	"streambalance/internal/sketch"
)

// Test oracles: the reference write paths every ingest equivalence suite
// compares Apply (and so Insert/Delete, which are one-op Applies) against.
// Neither calls Apply or applyLevels.
//
//   - oracleReplay writes each op, one at a time, through
//     Storing.Insert/Delete of every sketch whose sampler keeps it: the
//     scalar per-op path, which derives its own fingerprint key and cell
//     keys instead of reading the batch columns.
//   - oracleUncoalesced applies a batch's sampled rows to the sketches
//     without key-coalescing — one UpdateKeyedN row per selected op —
//     the reference the coalescer is pinned to, and the A/B partner of
//     BenchmarkStreamIngest.

// oracleUpdate writes one op into every sketch of s whose sampler keeps
// it, through Storing.Insert/Delete, and moves the net counter.
func oracleUpdate(s *Stream, p geo.Point, del bool) {
	if del {
		s.n--
	} else {
		s.n++
	}
	key := s.fp.Key(p)
	write := func(st *sketch.Storing) {
		if del {
			st.Delete(p)
		} else {
			st.Insert(p)
		}
	}
	for i := 0; i <= s.g.L; i++ {
		if i <= s.g.L-1 && s.hSamp[i].Sample(key) {
			write(s.hStore[i])
		}
		if s.hpSamp[i].Sample(key) {
			write(s.hpStore[i])
		}
		if s.hatSamp[i].Sample(key) {
			write(s.hatStore[i])
		}
	}
}

// oracleReplay feeds ops to s one at a time through oracleUpdate.
func oracleReplay(s *Stream, ops []Op) {
	for _, op := range ops {
		oracleUpdate(s, op.P, op.Delete)
	}
}

// oracleSelect feeds one op to the ensemble's net count and guess
// selectors.
func oracleSelect(a *Auto, op Op) {
	if op.Delete {
		a.n--
		a.reservoir.Delete(op.P)
		a.costBound.Delete(op.P)
	} else {
		a.n++
		a.reservoir.Insert(op.P)
		a.costBound.Insert(op.P)
	}
}

// oracleReplayAuto feeds ops to every guess instance of a one at a time,
// keeping the ensemble's net count and guess selectors in step.
func oracleReplayAuto(a *Auto, ops []Op) {
	for _, op := range ops {
		oracleSelect(a, op)
		for _, s := range a.streams {
			oracleUpdate(s, op.P, op.Delete)
		}
	}
}

// oracleUncoalesced applies a built batch to every level of s without
// key-coalescing: per level and substream, the sampled ops are gathered
// into (key, payload, sign) columns, one row per op, and written with
// UpdateKeyedN. The net counter is the caller's.
func oracleUncoalesced(s *Stream, b *batch) {
	L, dim := s.g.L, s.g.Dim
	n := len(b.ops)
	sel := make([]bool, n)
	var keys []uint64
	var payload, deltas []int64
	cells := func(level int) {
		keys, payload, deltas = keys[:0], payload[:0], deltas[:0]
		sh := uint(L - level)
		for t := 0; t < n; t++ {
			if !sel[t] {
				continue
			}
			keys = append(keys, b.cellKey[t*(L+1)+level])
			for _, v := range b.baseIdx[t*dim : (t+1)*dim] {
				payload = append(payload, v>>sh)
			}
			deltas = append(deltas, b.sign[t])
		}
	}
	for i := 0; i <= L; i++ {
		if i <= L-1 {
			s.hSamp[i].SampleN(sel, b.fkey)
			cells(i)
			s.hStore[i].UpdateKeyedN(keys, payload, nil, nil, deltas)
		}
		s.hpSamp[i].SampleN(sel, b.fkey)
		cells(i)
		s.hpStore[i].UpdateKeyedN(keys, payload, nil, nil, deltas)

		s.hatSamp[i].SampleN(sel, b.fkey)
		keys, payload, deltas = keys[:0], payload[:0], deltas[:0]
		for t := 0; t < n; t++ {
			if sel[t] {
				keys = append(keys, b.fkey[t])
				payload = append(payload, b.ops[t].P...)
				deltas = append(deltas, b.sign[t])
			}
		}
		s.hatStore[i].UpdateKeyedN(nil, nil, keys, payload, deltas)
	}
}

// oracleApplyUncoalesced is Stream.Apply with the uncoalesced write.
func oracleApplyUncoalesced(s *Stream, ops []Op) {
	if len(ops) == 0 {
		return
	}
	b := new(batch)
	b.build(s.g, s.fp, ops)
	oracleUncoalesced(s, b)
	s.n += netCount(ops)
}

// oracleApplyUncoalescedAuto is Auto.Apply with the uncoalesced write,
// one goroutine per guess instance.
func oracleApplyUncoalescedAuto(a *Auto, ops []Op) {
	if len(ops) == 0 {
		return
	}
	b := new(batch)
	b.build(a.g, a.fp, ops)
	for _, op := range ops {
		oracleSelect(a, op)
	}
	net := netCount(ops)
	var wg sync.WaitGroup
	for _, s := range a.streams {
		s.n += net
		wg.Add(1)
		go func() {
			defer wg.Done()
			oracleUncoalesced(s, b)
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
