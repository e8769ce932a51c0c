package partition

import (
	"math"
	"math/rand"
	"testing"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/workload"
)

func setup(t *testing.T, delta int64, dim int, seed int64) *grid.Grid {
	t.Helper()
	return grid.New(delta, dim, rand.New(rand.NewSource(seed)))
}

func clusteredPoints(rng *rand.Rand, n int, delta int64) geo.PointSet {
	// Two tight clusters plus sparse noise — a shape with genuinely heavy
	// cells at several levels.
	ps := make(geo.PointSet, 0, n)
	centers := []geo.Point{{delta / 4, delta / 4}, {3 * delta / 4, 3 * delta / 4}}
	for i := 0; i < n; i++ {
		if i%10 == 9 {
			ps = append(ps, geo.Point{1 + rng.Int63n(delta), 1 + rng.Int63n(delta)})
			continue
		}
		c := centers[i%2]
		p := geo.Point{
			clamp(c[0]+rng.Int63n(9)-4, delta),
			clamp(c[1]+rng.Int63n(9)-4, delta),
		}
		ps = append(ps, p)
	}
	return ps
}

func clamp(v, delta int64) int64 {
	if v < 1 {
		return 1
	}
	if v > delta {
		return delta
	}
	return v
}

// optUpper computes a valid uncapacitated k-clustering cost upper bound
// (k = 2 natural centers), usable as a legitimate o ≤ OPT after division.
func optUpper(ps geo.PointSet, r float64) float64 {
	Z := []geo.Point{{64, 64}, {192, 192}}
	var c float64
	for _, p := range ps {
		d, _ := geo.DistToSet(p, Z)
		c += geo.PowR(d, r)
	}
	return c
}

func TestThresholdMonotoneInLevel(t *testing.T) {
	g := setup(t, 256, 2, 1)
	for _, r := range []float64{1, 2} {
		prev := 0.0
		for level := -1; level <= g.L; level++ {
			th := ThresholdT(g, level, 1000, r)
			if th <= prev {
				t.Fatalf("T_i not increasing: level %d: %v ≤ %v", level, th, prev)
			}
			prev = th
		}
	}
}

func TestThresholdFormula(t *testing.T) {
	g := setup(t, 256, 4, 2)
	// T_i(o) = 0.01·o/(√d·g_i)^r with d=4, g_0=256, r=2: (2·256)² = 262144.
	want := 0.01 * 1e6 / (2 * 256 * 2 * 256)
	if got := ThresholdT(g, 0, 1e6, 2); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("T_0 = %v, want %v", got, want)
	}
}

func TestEveryPointInExactlyOnePart(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := setup(t, 256, 2, 3)
	ps := clusteredPoints(rng, 600, 256)
	o := optUpper(ps, 2) / 4 // o ≤ OPT ⇒ root heavy (Fact A.1)
	p := Build(Input{Grid: g, R: 2, O: o, Counts: ExactCounts(g, ps)})

	// Exact per-part point counts via PartOf must match each part's Tau.
	got := map[PartID]float64{}
	for _, q := range ps {
		id, ok := p.PartOf(q)
		if !ok {
			t.Fatalf("point %v not covered by any part", q)
		}
		got[id]++
	}
	if len(got) == 0 {
		t.Fatal("no parts at all")
	}
	var sumTau float64
	for id, part := range p.Parts {
		if math.Abs(part.Tau-got[id]) > 1e-9 {
			t.Fatalf("part %+v: Tau %v but %v points map to it", id, part.Tau, got[id])
		}
		sumTau += part.Tau
	}
	if math.Abs(sumTau-float64(len(ps))) > 1e-9 {
		t.Fatalf("parts cover %v points, want %d", sumTau, len(ps))
	}
	for id := range got {
		if p.Parts[id] == nil {
			t.Fatalf("PartOf produced unknown part %+v", id)
		}
	}
}

func TestRootHeavyWithValidGuess(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := setup(t, 256, 2, 4)
	ps := clusteredPoints(rng, 400, 256)
	o := optUpper(ps, 2) / 2
	p := Build(Input{Grid: g, R: 2, O: o, Counts: ExactCounts(g, ps)})
	rootKey := g.CellKey(ps[0], grid.MinLevel)
	if !p.IsHeavy(grid.MinLevel, rootKey) {
		t.Fatal("root cell must be heavy when o ≤ OPT (Fact A.1)")
	}
}

func TestHugeGuessFewerHeavyCells(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := setup(t, 256, 2, 5)
	ps := clusteredPoints(rng, 500, 256)
	small := Build(Input{Grid: g, R: 2, O: 100, Counts: ExactCounts(g, ps)})
	huge := Build(Input{Grid: g, R: 2, O: 1e12, Counts: ExactCounts(g, ps)})
	if huge.HeavyCount() >= small.HeavyCount() {
		t.Fatalf("heavy cells must shrink with o: %d (o huge) vs %d (o small)",
			huge.HeavyCount(), small.HeavyCount())
	}
	// With an absurdly large o the root fails the threshold: no part
	// contains anything.
	if huge.HeavyCount() == 0 {
		if _, ok := huge.PartOf(ps[0]); ok {
			t.Fatal("no heavy cells ⇒ PartOf must fail")
		}
	}
}

func TestHeavyCellBoundLemma33(t *testing.T) {
	// Lemma 3.3: with o ≈ OPT the number of heavy cells is
	// O((k + d^{1.5r})·L·OPT/o). We check the qualitative bound with a
	// generous constant.
	rng := rand.New(rand.NewSource(6))
	g := setup(t, 256, 2, 6)
	ps := clusteredPoints(rng, 800, 256)
	opt := optUpper(ps, 2) // an upper bound on OPT_2; use o = opt/10 ≤ OPT
	o := opt / 10
	p := Build(Input{Grid: g, R: 2, O: o, Counts: ExactCounts(g, ps)})
	k, d, L := 2.0, 2.0, float64(g.L)
	bound := 20000 * (k + math.Pow(d, 3)) * L // the Algorithm 2 FAIL budget
	if float64(p.HeavyCount()) > bound {
		t.Fatalf("heavy cells %d exceed the Algorithm 2 budget %v", p.HeavyCount(), bound)
	}
	if p.HeavyCount() == 0 {
		t.Fatal("expected at least the root to be heavy")
	}
}

func TestCrucialCellsHaveHeavyParentsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := setup(t, 128, 2, 7)
	ps := clusteredPoints(rng, 300, 128)
	p := Build(Input{Grid: g, R: 2, O: optUpper(ps, 2) / 5, Counts: ExactCounts(g, ps)})
	for id, part := range p.Parts {
		if !p.IsHeavy(id.Level-1, id.Parent) {
			t.Fatalf("part %+v: parent not heavy", id)
		}
		for i, key := range part.Keys {
			if id.Level <= g.L-1 && p.IsHeavy(id.Level, key) {
				t.Fatalf("part %+v contains a heavy (non-crucial) cell", id)
			}
			// Each crucial cell's parent must be the part's parent.
			if g.KeyOf(id.Level-1, grid.ParentIndex(part.Cells[i].Index)) != id.Parent {
				t.Fatalf("part %+v groups a cell with a different parent", id)
			}
		}
	}
}

func TestPartOfAgreesWithPartMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := setup(t, 128, 2, 8)
	ps := clusteredPoints(rng, 400, 128)
	p := Build(Input{Grid: g, R: 2, O: optUpper(ps, 2) / 3, Counts: ExactCounts(g, ps)})
	for _, q := range ps {
		id, ok := p.PartOf(q)
		if !ok {
			t.Fatalf("uncovered point %v", q)
		}
		// The crucial cell key of q at id.Level must be listed in the part.
		key := g.CellKey(q, id.Level)
		part := p.Parts[id]
		found := false
		for _, k := range part.Keys {
			if k == key {
				found = true
			}
		}
		if !found {
			t.Fatalf("point %v's crucial cell missing from its part", q)
		}
	}
}

func TestSinglePointInput(t *testing.T) {
	g := setup(t, 16, 2, 9)
	ps := geo.PointSet{{5, 5}}
	// o tiny: every cell on the path is heavy (τ = 1 ≥ T for small T), so
	// the point lands in the level-L part.
	p := Build(Input{Grid: g, R: 2, O: 1e-6, Counts: ExactCounts(g, ps)})
	id, ok := p.PartOf(ps[0])
	if !ok {
		t.Fatal("point not covered")
	}
	if id.Level != g.L {
		t.Fatalf("expected the level-L part, got level %d", id.Level)
	}
}

func TestBadCountsLengthPanics(t *testing.T) {
	g := setup(t, 16, 2, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(Input{Grid: g, R: 2, O: 1, Counts: make([]map[uint64]CellTau, 2)})
}

func TestTrivialUpperBoundO(t *testing.T) {
	g := setup(t, 16, 4, 11)
	// n·(√4·16)² = n·1024
	if got := TrivialUpperBoundO(10, g, 2); got != 10*1024 {
		t.Fatalf("TrivialUpperBoundO = %v", got)
	}
}

// partOfRef is the per-level CellKey walk PartOf replaced — the oracle
// for its allocation-free form.
func partOfRef(p *Partition, q geo.Point) (PartID, bool) {
	g := p.Grid
	if !p.heavy[0][g.CellKey(q, -1)] {
		return PartID{}, false
	}
	for level := 0; level <= g.L; level++ {
		if level == g.L || !p.heavy[level+1][g.CellKey(q, level)] {
			return PartID{Level: level, Parent: g.CellKey(q, level-1)}, true
		}
	}
	return PartID{}, false
}

// TestPartOfMatchesReference: PartOf agrees with the CellKey walk on
// covered and uncovered points, both with the index vector in its stack
// buffer (d = 2) and in the heap fallback (d > grid.StackDim).
func TestPartOfMatchesReference(t *testing.T) {
	for _, dim := range []int{2, grid.StackDim + 1} {
		rng := rand.New(rand.NewSource(int64(10 + dim)))
		g := setup(t, 64, dim, int64(dim))
		ps := make(geo.PointSet, 300)
		for i := range ps {
			ps[i] = make(geo.Point, dim)
			for j := range ps[i] {
				ps[i][j] = 1 + rng.Int63n(8)
				if i%7 == 0 {
					ps[i][j] = 1 + rng.Int63n(64)
				}
			}
		}
		for _, o := range []float64{10, 1e4, 1e12} {
			p := Build(Input{Grid: g, R: 2, O: o, Counts: ExactCounts(g, ps)})
			for _, q := range ps {
				id, ok := p.PartOf(q)
				wantID, wantOK := partOfRef(p, q)
				if id != wantID || ok != wantOK {
					t.Fatalf("d=%d o=%g point %v: PartOf %+v/%v, reference %+v/%v", dim, o, q, id, ok, wantID, wantOK)
				}
			}
		}
	}
}

// TestPartAtMatchesPartOf: the level-local lookup agrees with the
// root walk at every level, on mixture and uniform points over the E1
// geometry (Δ = 2^13, d = 2, a skewed k = 4 mixture with 5% noise) and
// on a d > grid.StackDim grid, at guesses from far below to far above
// OPT — including ones that leave points uncovered.
func TestPartAtMatchesPartOf(t *testing.T) {
	for _, dim := range []int{2, grid.StackDim + 1} {
		const delta = 1 << 13
		rng := rand.New(rand.NewSource(int64(40 + dim)))
		g := setup(t, delta, dim, int64(41+dim))
		m := workload.Mixture{N: 2000, D: dim, Delta: delta, K: 4, Spread: float64(delta) / 270, Skew: 2, NoiseFrac: 0.05}
		ps, centers := m.Generate(rng)
		queries := append(geo.PointSet(nil), ps[:500]...)
		queries = append(queries, workload.UniformBox(rng, 500, dim, delta)...)
		var opt float64 // cost at the true centers, an OPT upper bound
		for _, q := range ps {
			d, _ := geo.DistToSet(q, centers)
			opt += geo.PowR(d, 2)
		}
		for _, o := range []float64{opt / 1e6, opt / 1e3, opt / 4, opt, opt * 1e3} {
			p := Build(Input{Grid: g, R: 2, O: o, Counts: ExactCounts(g, ps)})
			covered := 0
			for _, q := range queries {
				want, wantOK := p.PartOf(q)
				if wantOK {
					covered++
				}
				for level := 0; level <= g.L; level++ {
					id, ok := p.PartAt(q, level)
					if ok != (wantOK && want.Level == level) || (ok && id != want) {
						t.Fatalf("d=%d o=%g point %v level %d: PartAt %+v/%v, PartOf %+v/%v",
							dim, o, q, level, id, ok, want, wantOK)
					}
				}
			}
			if dim == 2 && o == opt/4 && covered != len(queries) {
				t.Fatalf("o=OPT/4 left %d of %d points uncovered", len(queries)-covered, len(queries))
			}
		}
	}
}

// TestPartOfNoAlloc pins PartOf — run once per recovered ĥ point on
// every extraction — at zero allocations.
func TestPartOfNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := setup(t, 256, 2, 3)
	ps := clusteredPoints(rng, 600, 256)
	p := Build(Input{Grid: g, R: 2, O: optUpper(ps, 2) / 4, Counts: ExactCounts(g, ps)})
	if allocs := testing.AllocsPerRun(20, func() {
		for _, q := range ps {
			id, ok := p.PartOf(q)
			if !ok {
				t.Fatal("uncovered point")
			}
			if _, ok := p.PartAt(q, id.Level); !ok {
				t.Fatal("PartAt misses the PartOf level")
			}
		}
	}); allocs != 0 {
		t.Fatalf("PartOf/PartAt allocate: %v allocs per %d calls", allocs, len(ps))
	}
}

// TestParentKeyDerivationNoAlloc pins BuildLazy's per-cell parent-key
// derivation over a prebuilt count map at zero allocations.
func TestParentKeyDerivationNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := setup(t, 256, 2, 4)
	counts := ExactCounts(g, clusteredPoints(rng, 600, 256))
	level := 5
	cts := counts[level+1]
	var sink uint64
	if allocs := testing.AllocsPerRun(20, func() {
		for _, ct := range cts {
			sink ^= g.ParentKey(level, ct.Index)
		}
	}); allocs != 0 {
		t.Fatalf("parent-key derivation allocates: %v allocs per %d cells", allocs, len(cts))
	}
	for key, ct := range cts {
		if g.ParentKey(level, ct.Index) != g.KeyOf(level-1, grid.ParentIndex(ct.Index)) {
			t.Fatalf("cell %x: ParentKey differs from KeyOf∘ParentIndex", key)
		}
	}
	_ = sink
}
