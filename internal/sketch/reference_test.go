package sketch

import "streambalance/internal/hashing"

// Reference decoder: the round-based full-slab scan the worklist decoder
// (decode.go) is pinned against — bit-identical items, ok-flag and FAIL
// cases — by TestDecodeWorklistMatchesReference,
// FuzzDecodeWorklistMatchesReference and the decode benchmarks.

// clone deep-copies the bucket state (hash functions shared).
func (sr *SparseRecovery) clone() *SparseRecovery {
	cp := sr.CloneEmpty()
	copy(cp.slab, sr.slab)
	return cp
}

// pureAt checks whether the bucket slab words b hold exactly one key and,
// if so, extracts it. Every verification — fingerprint, then payload
// divisibility — runs before the payload slice is materialized, so an
// impure candidate costs no allocation (the worklist decoder's pureKeyAt
// keeps the same ordering).
func (sr *SparseRecovery) pureAt(b []int64) (Item, bool) {
	count := b[0]
	if count == 0 {
		return Item{}, false
	}
	cf := hashing.ToField(count)
	if cf == 0 {
		return Item{}, false
	}
	key := hashing.MulMod(uint64(b[1]), hashing.InvMod(cf))
	if hashing.MulMod(cf, sr.fpHash.Eval(key)) != uint64(b[2]) {
		return Item{}, false
	}
	for j := 0; j < sr.payloadDim; j++ {
		if b[3+j]%count != 0 {
			return Item{}, false
		}
	}
	var payload []int64
	if sr.payloadDim > 0 {
		payload = make([]int64, sr.payloadDim)
		for j := range payload {
			payload[j] = b[3+j] / count
		}
	}
	return Item{Key: key, Count: count, Payload: payload}, true
}

// DecodeReference decodes by full-slab rescan rounds over a cloned
// working copy, one purity probe per bucket per round, until a round
// extracts nothing.
func (sr *SparseRecovery) DecodeReference() (items []Item, ok bool) {
	w := sr.clone()
	for {
		progress := false
		for r := 0; r < w.rows && len(items) <= w.s; r++ {
			for c := 0; c < w.width; c++ {
				it, pure := w.pureAt(w.slab[(r*w.width+c)*w.stride:][:w.stride])
				if !pure {
					continue
				}
				items = append(items, it)
				w.Update(it.Key, it.Payload, -it.Count)
				progress = true
			}
		}
		if len(items) > w.s {
			return nil, false
		}
		if !progress {
			break
		}
	}
	for i := 0; i < len(w.slab); i += w.stride {
		if w.slab[i] != 0 || w.slab[i+1] != 0 {
			return nil, false
		}
	}
	return items, true
}
