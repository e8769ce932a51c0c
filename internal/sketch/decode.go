// Worklist peeling decoder for SparseRecovery.
//
// The round-based reference decoder (a test oracle, reference_test.go)
// repeatedly rescans the whole rows×width slab until a round extracts
// nothing — O(rows·width) bucket probes per peeled item in the worst
// case, with a full slab clone and a payload allocation per candidate on
// top. The decoder here is the
// standard IBLT worklist formulation: a FIFO of candidate buckets seeded
// with every non-empty bucket, where peeling an item enqueues only the
// ≤ rows buckets its removal touched. Each bucket is probed O(1) times
// per state change, the ~120-multiply InvMod of every purity test is
// replaced by a precomputed small-integer inverse table (net counts are
// almost always tiny), and all scratch — working slab, queue, queued
// marks — lives in a reusable DecodeArena so repeated decodes allocate
// only the items they return.
//
// Peeling is confluent: the set of peelable items does not depend on the
// order buckets are processed (the unpeelable remainder is the unique
// 2-core of the bucket hypergraph), so the worklist decoder returns the
// same items, ok-flag and FAIL cases as the reference on every input.
// FuzzDecodeWorklistMatchesReference and TestDecodeWorklistMatchesReference
// pin that equivalence under -race.
package sketch

import (
	"sync"

	"streambalance/internal/hashing"
)

// invTabSize bounds the precomputed inverse table: ToField inverses for
// net counts with |count| ≤ invTabSize are a table load instead of a
// Fermat exponentiation. Net multiplicities in the streaming workloads
// are almost always single digits; 1024 covers heavy cells too.
const invTabSize = 1024

var (
	invTabOnce sync.Once
	invTab     [invTabSize + 1]uint64 // invTab[n] = InvMod(n), n in 1..invTabSize
)

// initInvTab fills the inverse table with one batched-inversion pass
// (Montgomery's trick): n products, one InvMod, n more products —
// instead of n full exponentiations.
func initInvTab() {
	prefix := make([]uint64, invTabSize+1)
	prefix[0] = 1
	for i := 1; i <= invTabSize; i++ {
		prefix[i] = hashing.MulMod(prefix[i-1], uint64(i))
	}
	inv := hashing.InvMod(prefix[invTabSize])
	for i := invTabSize; i >= 1; i-- {
		invTab[i] = hashing.MulMod(inv, prefix[i-1])
		inv = hashing.MulMod(inv, uint64(i))
	}
}

// invCountField returns InvMod(ToField(count)) for count ≢ 0 (mod p):
// a table load for |count| ≤ invTabSize (inverse of a negative count is
// the field negation of the positive inverse), the Fermat path beyond.
func invCountField(count int64) uint64 {
	n := count
	if n < 0 {
		n = -n
	}
	if n >= 1 && n <= invTabSize {
		if count < 0 {
			return hashing.MersennePrime61 - invTab[n]
		}
		return invTab[n]
	}
	return hashing.InvMod(hashing.ToField(count))
}

// DecodeArena holds the reusable scratch of the worklist decoder: the
// working slab copy, the candidate-bucket queue and its membership
// marks. Buffers grow to the largest sketch decoded and are reused
// across calls; one arena serves sketches of any shape. An arena must
// not be used from two goroutines at once — the extraction pipeline
// keeps one per decode worker.
type DecodeArena struct {
	slab  []int64
	queue []int32
	mark  []bool

	// Scratch of the sparse differential peel (peelSparse): a second
	// slab and mark buffer kept ALL-ZERO between uses — the sparse path
	// writes only the journaled buckets and re-zeroes exactly what it
	// wrote before returning, so a splice never pays an O(slab) clear or
	// copy. The full-peel buffers above can't be shared: a cold decode
	// leaves arbitrary junk in them.
	zslab []int64
	zmark []bool
	touch []int32 // write set of the sparse peel's drain
}

// NewDecodeArena returns an empty arena; buffers are allocated on first
// use and retained for reuse.
func NewDecodeArena() *DecodeArena { return &DecodeArena{} }

// grab sizes the arena for a sketch with slabLen slab words and buckets
// buckets, returning the working buffers (queue empty, marks cleared).
func (a *DecodeArena) grab(slabLen, buckets int) (slab []int64, mark []bool) {
	if cap(a.slab) < slabLen {
		a.slab = make([]int64, slabLen)
	}
	if cap(a.mark) < buckets {
		a.mark = make([]bool, buckets)
	}
	if cap(a.queue) < buckets {
		a.queue = make([]int32, 0, buckets)
	}
	slab = a.slab[:slabLen]
	mark = a.mark[:buckets]
	clear(mark)
	return slab, mark
}

// grabSparse returns the zero-invariant buffers of the sparse
// differential peel. Growth allocates fresh (zeroed) memory; shrinking
// reslices — the prefix is zero because every user restores the
// invariant before returning.
func (a *DecodeArena) grabSparse(slabLen, buckets int) (slab []int64, mark []bool) {
	if cap(a.zslab) < slabLen {
		a.zslab = make([]int64, slabLen)
	}
	if cap(a.zmark) < buckets {
		a.zmark = make([]bool, buckets)
	}
	if cap(a.queue) < buckets {
		a.queue = make([]int32, 0, buckets)
	}
	return a.zslab[:slabLen], a.zmark[:buckets]
}

// pureKeyAt is the worklist decoder's purity test on the bucket words b:
// if the bucket holds exactly one key it returns that key and its
// fingerprint hash (reused by the peel-out subtraction). It allocates
// nothing and never touches the payload words — payload divisibility is
// checked by the caller only after the fingerprint verifies.
func (sr *SparseRecovery) pureKeyAt(b []int64) (key, fpk uint64, ok bool) {
	count := b[0]
	if count == 0 {
		return 0, 0, false
	}
	cf := hashing.ToField(count)
	if cf == 0 {
		return 0, 0, false
	}
	key = hashing.MulMod(uint64(b[1]), invCountField(count))
	fpk = sr.fpHash.Eval(key)
	if hashing.MulMod(cf, fpk) != uint64(b[2]) {
		return 0, 0, false
	}
	return key, fpk, true
}

// Decode recovers the full vector if it is ≤ s sparse. On success it
// returns all nonzero items; on failure (over-full or an internal hash
// verification failed) ok is false and items must be ignored. Decode
// does not modify the sketch. Equivalent to DecodeWith with a private
// arena; callers decoding many sketches should pass a reused arena.
func (sr *SparseRecovery) Decode() (items []Item, ok bool) {
	return sr.DecodeWith(nil)
}

// DecodeWith is Decode running its scratch out of a (nil allocates a
// transient arena). The returned items and payloads are freshly
// allocated — they are safe to retain (the Storing decode cache does)
// and never alias arena memory. A non-nil arena makes DecodeWith unsafe
// to call concurrently with any other use of the same arena; the sketch
// itself is still not modified.
func (sr *SparseRecovery) DecodeWith(a *DecodeArena) (items []Item, ok bool) {
	return sr.peel(a, nil, sr.s)
}

// DecodeDeltaWith peels the difference between the current slab and a
// snapshot taken by SnapshotSlab at some earlier state. By linearity the
// residual cur − snap is itself a valid sketch of exactly the updates
// applied since the snapshot, so a successful peel returns the net
// per-key delta vector — the basis of the Storing differential decode
// (DESIGN.md §13). itemCap bounds the residual support to attempt: the
// caller combining a base of ≤ s items with a delta passes 2s, since a
// legal ≤ s-sparse current state can differ from a ≤ s-sparse base in up
// to 2s keys. ok is false when the residual is denser than itemCap or
// does not verify — the caller falls back to a cold decode, so a false
// here never changes any reported result.
func (sr *SparseRecovery) DecodeDeltaWith(a *DecodeArena, snap []int64, itemCap int) (items []Item, ok bool) {
	if len(snap) != len(sr.slab) {
		panic("sketch: DecodeDeltaWith snapshot length mismatch")
	}
	if sr.DirtySparse() {
		return sr.peelSparse(a, snap, itemCap)
	}
	return sr.peel(a, snap, itemCap)
}

// peel is the shared worklist core of DecodeWith and DecodeDeltaWith:
// with snap == nil the working slab is a copy of the current slab, with
// a snapshot it is the residual cur − snap (exact int64 subtraction for
// the count and payload words, GF(p) subtraction for keySum/fpSum).
// itemCap is the over-full bail threshold.
func (sr *SparseRecovery) peel(a *DecodeArena, snap []int64, itemCap int) (items []Item, ok bool) {
	if a == nil {
		a = NewDecodeArena()
	}
	stride := sr.stride
	buckets := sr.rows * sr.width
	slab, mark := a.grab(len(sr.slab), buckets)
	if snap == nil {
		copy(slab, sr.slab)
	} else {
		for i := 0; i < len(slab); i += stride {
			slab[i] = sr.slab[i] - snap[i]
			slab[i+1] = int64(hashing.SubMod(uint64(sr.slab[i+1]), uint64(snap[i+1])))
			slab[i+2] = int64(hashing.SubMod(uint64(sr.slab[i+2]), uint64(snap[i+2])))
			for j := 3; j < stride; j++ {
				slab[i+j] = sr.slab[i+j] - snap[i+j]
			}
		}
	}

	// Seed: every bucket with a nonzero count word is a candidate. A
	// bucket whose count is zero now can only become pure after a peel
	// touches it, which re-enqueues it below.
	queue := a.queue[:0]
	for bi := 0; bi < buckets; bi++ {
		if slab[bi*stride] != 0 {
			queue = append(queue, int32(bi))
			mark[bi] = true
		}
	}

	items, queue, _, ok = sr.drain(slab, mark, queue, itemCap, nil)
	a.queue = queue[:0] // keep any growth for the next decode
	if !ok {
		return nil, false
	}

	// Residual check: a fully peeled sketch must be all-zero in the
	// count and keySum words (the same verification the reference runs).
	for i := 0; i < len(slab); i += stride {
		if slab[i] != 0 || slab[i+1] != 0 {
			return nil, false
		}
	}
	return items, true
}

// drain is the worklist core shared by the full and sparse peels: pop
// candidate buckets, peel pure ones, re-enqueue the ≤ rows buckets each
// removal touched. It mutates slab in place and returns the final queue
// (for capacity reuse and mark cleanup). ok=false is the over-full
// bail: more than itemCap items peeled. Marks of processed entries are
// cleared as they pop; on the bail path the not-yet-popped tail keeps
// its marks — callers that need clean marks sweep the returned queue.
//
// With a non-nil touched, every bucket a peel-out subtraction writes is
// appended to it — the sparse peel needs the complete write set to
// verify and re-zero its zero-invariant slab, and the queue alone does
// not cover it (a subtraction that cancels a bucket's count to zero is
// written but never enqueued).
func (sr *SparseRecovery) drain(slab []int64, mark []bool, queue []int32, itemCap int, touched []int32) (items []Item, q, touchedOut []int32, ok bool) {
	stride := sr.stride
	// One payload slab for every item this decode can return: at most
	// itemCap+1 items are materialized before the over-full bail, so a
	// single allocation replaces the per-item make of the reference path.
	var payloadBuf []int64
	if sr.payloadDim > 0 {
		payloadBuf = make([]int64, (itemCap+1)*sr.payloadDim)
	}

	for qi := 0; qi < len(queue); qi++ {
		bi := int(queue[qi])
		mark[bi] = false
		b := slab[bi*stride : bi*stride+stride]
		key, fpk, pure := sr.pureKeyAt(b)
		if !pure {
			continue
		}
		count := b[0]
		var payload []int64
		if sr.payloadDim > 0 {
			divisible := true
			for j := 0; j < sr.payloadDim; j++ {
				if b[3+j]%count != 0 {
					divisible = false
					break
				}
			}
			if !divisible {
				continue
			}
			payload = payloadBuf[len(items)*sr.payloadDim:][:sr.payloadDim:sr.payloadDim]
			for j := range payload {
				payload[j] = b[3+j] / count
			}
		}
		items = append(items, Item{Key: key, Count: count, Payload: payload})
		if len(items) > itemCap {
			return nil, queue, touched, false
		}
		// Peel the item out of every row; only the ≤ rows touched
		// buckets can have changed purity, so only they are enqueued.
		cf := hashing.ToField(count)
		df := hashing.MersennePrime61 - cf // ToField(-count)
		dk := hashing.MulMod(df, key)
		dfp := hashing.MulMod(df, fpk)
		for r := 0; r < sr.rows; r++ {
			c := bucketOf(sr.rowHash[r].Eval(key), sr.width)
			ti := r*sr.width + c
			tb := slab[ti*stride : ti*stride+stride]
			tb[0] -= count
			tb[1] = int64(hashing.AddMod(uint64(tb[1]), dk))
			tb[2] = int64(hashing.AddMod(uint64(tb[2]), dfp))
			for j := 0; j < sr.payloadDim; j++ {
				tb[3+j] -= count * payload[j]
			}
			if touched != nil {
				touched = append(touched, int32(ti))
			}
			if tb[0] != 0 && !mark[ti] {
				queue = append(queue, int32(ti))
				mark[ti] = true
			}
		}
	}
	return items, queue, touched, true
}

// peelSparse is the journal-guided residual peel: with a live dirty
// journal, every bucket where cur differs from snap is journaled, so
// the residual is materialized, seeded, verified and re-zeroed over the
// journaled buckets only — O(dirty + delta support), with no O(slab)
// term at all. Correctness does not rest on the journal being minimal
// (duplicates and untouched entries are harmless), only on it being a
// superset of the changed buckets, which the update paths guarantee.
//
// The working buffers come from the arena's zero-invariant pair
// (grabSparse): every bucket this peel writes is journaled — peeling an
// item only touches its row buckets, and an item in the residual has
// all of them journaled — so sweeping the journal restores the
// invariant on every exit path.
func (sr *SparseRecovery) peelSparse(a *DecodeArena, snap []int64, itemCap int) (items []Item, ok bool) {
	if a == nil {
		a = NewDecodeArena()
	}
	stride := sr.stride
	buckets := sr.rows * sr.width
	slab, mark := a.grabSparse(len(sr.slab), buckets)
	dirty := sr.dirty

	for _, b32 := range dirty {
		off := int(b32) * stride
		slab[off] = sr.slab[off] - snap[off]
		slab[off+1] = int64(hashing.SubMod(uint64(sr.slab[off+1]), uint64(snap[off+1])))
		slab[off+2] = int64(hashing.SubMod(uint64(sr.slab[off+2]), uint64(snap[off+2])))
		for j := 3; j < stride; j++ {
			slab[off+j] = sr.slab[off+j] - snap[off+j]
		}
	}
	queue := a.queue[:0]
	for _, b32 := range dirty {
		bi := int(b32)
		if slab[bi*stride] != 0 && !mark[bi] {
			queue = append(queue, int32(bi))
			mark[bi] = true
		}
	}

	if a.touch == nil {
		a.touch = make([]int32, 0, 64)
	}
	var touched []int32
	items, queue, touched, ok = sr.drain(slab, mark, queue, itemCap, a.touch[:0])
	a.touch = touched[:0] // keep any growth for the next decode
	if ok {
		// Verify over journal ∪ write set: every other bucket is zero by
		// the invariant, so this equals peel's full residual check — the
		// write set matters because a (δ-rare) phantom peel can subtract
		// from buckets outside the journal.
		for _, b32 := range dirty {
			off := int(b32) * stride
			if slab[off] != 0 || slab[off+1] != 0 {
				ok = false
				break
			}
		}
		if ok {
			for _, b32 := range touched {
				off := int(b32) * stride
				if slab[off] != 0 || slab[off+1] != 0 {
					ok = false
					break
				}
			}
		}
	}

	// Restore the zero invariant: re-zero every bucket written — the
	// journaled fills and the drain's write set — and sweep the marks
	// the bail path may have left on the queued tail.
	for _, b32 := range dirty {
		off := int(b32) * stride
		for j := 0; j < stride; j++ {
			slab[off+j] = 0
		}
	}
	for _, b32 := range touched {
		off := int(b32) * stride
		for j := 0; j < stride; j++ {
			slab[off+j] = 0
		}
	}
	for _, bi := range queue {
		mark[bi] = false
	}
	if !ok {
		return nil, false
	}
	return items, true
}
