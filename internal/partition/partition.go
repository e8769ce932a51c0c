// Package partition implements Algorithm 1 of the paper: partitioning the
// input point set via heavy cells of a randomly shifted hierarchical grid.
//
// Given a guess o of the optimal (uncapacitated) ℓ_r k-clustering cost,
// level i uses the threshold T_i(o) = 0.01·o/(√d·g_i)^r. A cell is heavy
// when its (estimated) point count reaches T_i(o) and all its ancestors
// are heavy; a cell whose ancestors are all heavy but which is not itself
// heavy is crucial. The points inside the crucial descendants of the j-th
// heavy cell of G_{i−1} form the part Q_{i,j}; Lemma 3.3 bounds the number
// of heavy cells and Lemma 3.4 shows that dropping small parts barely
// perturbs any capacitated clustering cost — the two facts the coreset
// construction (Algorithm 2) builds on.
package partition

import (
	"math"
	"slices"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
)

// CellTau is a non-empty cell together with its (estimated) point count τ.
type CellTau struct {
	Index []int64 // cell index vector at the cell's level
	Tau   float64 // estimated |C ∩ Q|
}

// Input bundles everything Algorithm 1 needs.
type Input struct {
	Grid *grid.Grid
	R    float64 // the ℓ_r exponent
	O    float64 // guess of OPT^{(r)}_{k-clus}
	// Counts[level+1] maps cell key → CellTau for grid level `level`,
	// level ∈ {−1, 0, ..., L}. Only non-empty cells need entries. These
	// estimates drive the heavy-cell marking (the h-substream of
	// Algorithm 4 / step 3 of Algorithm 3).
	Counts []map[uint64]CellTau
	// PartCounts, when non-nil, supplies the cell estimates used to
	// enumerate crucial cells and accumulate part masses τ(Q_{i,j}) — in
	// the streaming algorithm these come from the independent h′-substream
	// (Algorithm 3 steps 4–5). Nil means reuse Counts (the offline case).
	PartCounts []map[uint64]CellTau
}

// PartID identifies a part Q_{i,j} by its level i and the key of its
// parent heavy cell in G_{i−1}.
type PartID struct {
	Level  int
	Parent uint64
}

// Part is one part Q_{i,j} of the partition: the crucial cells at level
// `ID.Level` sharing the heavy parent `ID.Parent`.
type Part struct {
	ID    PartID
	Cells []CellTau // crucial cells composing the part
	Keys  []uint64  // cell keys parallel to Cells
	Tau   float64   // Σ τ over the crucial cells ≈ |Q_{i,j}|
}

// Partition is the output of Algorithm 1.
type Partition struct {
	Grid  *grid.Grid
	R     float64
	O     float64
	heavy []map[uint64]bool // heavy[level+1], levels −1..L−1
	Parts map[PartID]*Part
}

// ThresholdT returns T_i(o) = 0.01·o/(√d·g_i)^r for this partition's o.
func (p *Partition) ThresholdT(level int) float64 {
	return ThresholdT(p.Grid, level, p.O, p.R)
}

// ThresholdT computes T_i(o) = 0.01·o/(√d·g_i)^r.
func ThresholdT(g *grid.Grid, level int, o, r float64) float64 {
	diag := math.Sqrt(float64(g.Dim)) * float64(g.SideLen(level))
	return 0.01 * o / geo.PowR(diag, r)
}

// CountSource lazily supplies the (estimated) non-empty cell counts for
// one grid level. ok = false signals that the estimates for this level
// are unavailable (a FAILed sketch in the streaming setting); BuildLazy
// then aborts. A level is only ever requested if it can matter: heavy
// marking requests level i only while heavy cells still exist above it,
// and part collection only requests levels with a heavy parent level.
type CountSource func(level int) (map[uint64]CellTau, bool)

// ErrCounts is returned by BuildLazy when a consulted CountSource reports
// failure.
type ErrCounts struct{ Level int }

func (e ErrCounts) Error() string {
	return "partition: cell counts unavailable for level " + itoa(e.Level)
}

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

// Build runs Algorithm 1 on the given (estimated) cell counts.
func Build(in Input) *Partition {
	g := in.Grid
	L := g.L
	if len(in.Counts) != L+2 {
		panic("partition: Counts must cover levels -1..L")
	}
	partCounts := in.PartCounts
	if partCounts == nil {
		partCounts = in.Counts
	}
	if len(partCounts) != L+2 {
		panic("partition: PartCounts must cover levels -1..L")
	}
	p, err := BuildLazy(g, in.R, in.O,
		func(level int) (map[uint64]CellTau, bool) { return in.Counts[level+1], true },
		func(level int) (map[uint64]CellTau, bool) { return partCounts[level+1], true },
	)
	if err != nil {
		panic("partition: map-backed sources cannot fail: " + err.Error())
	}
	return p
}

// BuildLazy runs Algorithm 1 with lazily supplied count estimates,
// consulting each level's source only if that level can still contain
// heavy or crucial cells. This is how the streaming algorithm avoids
// decoding (and hence avoids FAILing on) sketches of levels below the
// deepest heavy cell, whose contents the partition never uses.
func BuildLazy(g *grid.Grid, r, o float64, counts, partCounts CountSource) (*Partition, error) {
	L := g.L
	p := &Partition{
		Grid:  g,
		R:     r,
		O:     o,
		heavy: make([]map[uint64]bool, L+1), // levels −1..L−1
		Parts: make(map[PartID]*Part),
	}
	for i := range p.heavy {
		p.heavy[i] = map[uint64]bool{}
	}
	// Mark heavy cells top-down (lines 4–11 of Algorithm 1), stopping at
	// the first level that can no longer contain heavy cells.
	for level := -1; level <= L-1; level++ {
		if level > -1 && len(p.heavy[level]) == 0 {
			break // no heavy parents ⇒ no heavy cells below
		}
		cts, ok := counts(level)
		if !ok {
			return nil, ErrCounts{Level: level}
		}
		th := ThresholdT(g, level, o, r)
		for key, ct := range cts {
			if ct.Tau < th {
				continue
			}
			if level == -1 || p.heavy[level][g.ParentKey(level, ct.Index)] {
				p.heavy[level+1][key] = true
			}
		}
	}
	// Collect crucial cells into parts (lines 9, 12, 14). Part masses may
	// come from an independent estimate source (streaming h′-substream).
	// Cells are visited in sorted key order: τ(Q_{i,j}) is a float sum, and
	// summing in map-iteration order would make the last-ulp value — and
	// hence any borderline inclusion or FAIL threshold downstream — vary
	// between otherwise identical runs.
	var keys []uint64 // sort buffer, reused across levels
	for level := 0; level <= L; level++ {
		if len(p.heavy[level]) == 0 {
			continue // no heavy parent level ⇒ no crucial cells here
		}
		cts, ok := partCounts(level)
		if !ok {
			return nil, ErrCounts{Level: level}
		}
		keys = keys[:0]
		for key := range cts {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		for _, key := range keys {
			ct := cts[key]
			parentKey := g.ParentKey(level, ct.Index)
			if !p.heavy[level][parentKey] {
				continue // some ancestor is not heavy
			}
			if level <= L-1 && p.heavy[level+1][key] {
				continue // heavy itself, not crucial
			}
			id := PartID{Level: level, Parent: parentKey}
			part := p.Parts[id]
			if part == nil {
				part = &Part{ID: id}
				p.Parts[id] = part
			}
			part.Cells = append(part.Cells, ct)
			part.Keys = append(part.Keys, key)
			part.Tau += ct.Tau
		}
	}
	return p, nil
}

// HeavyCount returns Σ_i s_i, the total number of heavy cells across
// levels −1..L−1 (line 13 of Algorithm 1 counts s_i = heavy cells in
// G_{i−1} for i ∈ {0..L}, which is the same total).
func (p *Partition) HeavyCount() int {
	n := 0
	for _, m := range p.heavy {
		n += len(m)
	}
	return n
}

// IsHeavy reports whether the level-`level` cell with the given key was
// marked heavy. Valid for level ∈ {−1..L−1}.
func (p *Partition) IsHeavy(level int, key uint64) bool {
	if level < -1 || level > p.Grid.L-1 {
		return false
	}
	return p.heavy[level+1][key]
}

// PartOf locates the part containing point q: the unique level whose cell
// containing q is crucial. ok is false when q falls outside every heavy
// cell (possible only if the root was not heavy, i.e. o was far too
// large).
func (p *Partition) PartOf(q geo.Point) (PartID, bool) {
	g := p.Grid
	// Each level's index goes into one stack buffer and each level's key
	// is carried down as the next level's parent, so the walk allocates
	// nothing.
	var buf [grid.StackDim]int64
	idx := buf[:0]
	if g.Dim > grid.StackDim {
		idx = make([]int64, 0, g.Dim)
	}
	parent := g.KeyOf(-1, g.CellIndexInto(idx, q, -1))
	if !p.heavy[0][parent] {
		return PartID{}, false
	}
	for level := 0; level <= g.L; level++ {
		key := g.KeyOf(level, g.CellIndexInto(idx, q, level))
		if level == g.L || !p.heavy[level+1][key] {
			return PartID{Level: level, Parent: parent}, true
		}
		parent = key
	}
	return PartID{}, false // unreachable
}

// PartAt is the level-local form of PartOf: it reports whether q's part
// lies at the given level, and returns it if so. Heavy sets are closed
// under ancestors — BuildLazy marks a cell heavy only under a heavy
// parent — so q's part is at level i exactly when q's level-(i−1) cell
// is heavy and its level-i cell is not (or i = L). Two cell keys decide
// it, where PartOf walks every level from the root; callers that
// already know the level to test (the ĥ assembly of one level's
// recovered points) skip the walk.
func (p *Partition) PartAt(q geo.Point, level int) (PartID, bool) {
	g := p.Grid
	var buf [grid.StackDim]int64
	idx := buf[:0]
	if g.Dim > grid.StackDim {
		idx = make([]int64, 0, g.Dim)
	}
	parent := g.KeyOf(level-1, g.CellIndexInto(idx, q, level-1))
	if !p.heavy[level][parent] {
		return PartID{}, false
	}
	if level < g.L && p.heavy[level+1][g.KeyOf(level, g.CellIndexInto(idx, q, level))] {
		return PartID{}, false
	}
	return PartID{Level: level, Parent: parent}, true
}

// LevelCount returns the number of parts at each level (diagnostics).
func (p *Partition) LevelCount() []int {
	out := make([]int, p.Grid.L+1)
	for id := range p.Parts {
		out[id.Level]++
	}
	return out
}

// ExactCounts computes exact per-cell point counts for all levels
// −1..L — the offline instantiation of the τ estimates (Theorem 3.19's
// "easy to compute the exact value" remark).
func ExactCounts(g *grid.Grid, ps geo.PointSet) []map[uint64]CellTau {
	counts := make([]map[uint64]CellTau, g.L+2)
	for level := -1; level <= g.L; level++ {
		counts[level+1] = make(map[uint64]CellTau)
	}
	for _, p := range ps {
		for level := -1; level <= g.L; level++ {
			key := g.CellKey(p, level)
			ct, ok := counts[level+1][key]
			if !ok {
				ct = CellTau{Index: g.CellIndex(p, level)}
			}
			ct.Tau++
			counts[level+1][key] = ct
		}
	}
	return counts
}

// TrivialUpperBoundO returns n·(√d·Δ)^r, the largest meaningful guess o
// (every point at maximal distance from its center); the o-enumeration of
// Theorem 3.19 stops here.
func TrivialUpperBoundO(n int, g *grid.Grid, r float64) float64 {
	diag := math.Sqrt(float64(g.Dim)) * float64(g.Delta)
	return float64(n) * geo.PowR(diag, r)
}
