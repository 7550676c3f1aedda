package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"oms/internal/core"
	"oms/internal/metrics"
)

// tinyConfig keeps harness tests fast: two small instances, small k.
func tinyConfig() Config {
	ins := []Instance{mustIns("Dubcova1"), mustIns("coAuthorsDBLP")}
	return Config{
		Scale:     0.02,
		Reps:      1,
		Rs:        []int32{2, 4},
		Instances: ins,
		Seed:      7,
	}
}

func mustIns(name string) Instance {
	ins, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return ins
}

func TestTable1RegistryComplete(t *testing.T) {
	if len(Table1) != 26 {
		t.Fatalf("Table 1 has %d instances, paper lists 26", len(Table1))
	}
	seen := make(map[string]bool)
	for _, ins := range Table1 {
		if seen[ins.Name] {
			t.Fatalf("duplicate instance %s", ins.Name)
		}
		seen[ins.Name] = true
		if ins.N <= 0 || ins.M <= 0 {
			t.Fatalf("%s has bad sizes", ins.Name)
		}
	}
}

func TestInstanceBuildMatchesTargetSizes(t *testing.T) {
	// At a small scale, n should track round(N*scale) (with the 1000
	// floor) and m should be within a factor 2 of proportional for every
	// family generator.
	scale := 0.01
	for _, ins := range Table1 {
		g := ins.Build(scale)
		wantN := int32(math.Round(float64(ins.N) * scale))
		if wantN < 1000 {
			wantN = 1000
		}
		if g.NumNodes() != wantN {
			t.Errorf("%s: n=%d want %d", ins.Name, g.NumNodes(), wantN)
		}
		wantM := float64(ins.M) * scale
		minM := 2 * float64(wantN)
		if wantM < minM {
			wantM = minM
		}
		gotM := float64(g.NumEdges())
		if gotM < wantM/2.5 || gotM > wantM*2.5 {
			t.Errorf("%s: m=%.0f want ~%.0f", ins.Name, gotM, wantM)
		}
	}
}

func TestBuildCachedReturnsSameGraph(t *testing.T) {
	ins := mustIns("Dubcova1")
	a := ins.BuildCached(0.013)
	b := ins.BuildCached(0.013)
	if a != b {
		t.Fatal("cache miss for identical key")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("no-such-graph"); err == nil {
		t.Fatal("expected error")
	}
}

func TestExecuteAllAlgorithms(t *testing.T) {
	g := mustIns("Dubcova1").BuildCached(0.05)
	top := Config{Dist: "1:10:100"}.topoFor(2)
	for _, alg := range []AlgID{AlgHashing, AlgLDG, AlgFennel, AlgNhOMS, AlgML} {
		parts, err := Execute(g, RunSpec{Alg: alg, K: 64, Eps: 0.03, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(parts) != int(g.NumNodes()) {
			t.Fatalf("%s: wrong parts length", alg)
		}
	}
	for _, alg := range []AlgID{AlgOMS, AlgIntMap} {
		parts, err := Execute(g, RunSpec{Alg: alg, Top: top, Eps: 0.03, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(parts) != int(g.NumNodes()) {
			t.Fatalf("%s: wrong parts length", alg)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	g := mustIns("Dubcova1").BuildCached(0.05)
	if _, err := Execute(g, RunSpec{Alg: AlgOMS, K: 8}); err == nil {
		t.Fatal("OMS without topology accepted")
	}
	if _, err := Execute(g, RunSpec{Alg: AlgIntMap, K: 8}); err == nil {
		t.Fatal("IntMap without topology accepted")
	}
	if _, err := Execute(g, RunSpec{Alg: "bogus", K: 8}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestMeasureAveragesAndBalance(t *testing.T) {
	g := mustIns("Dubcova1").BuildCached(0.05)
	m, err := Measure(g, RunSpec{Alg: AlgNhOMS, K: 32, Eps: 0.03, Seed: 3}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cut <= 0 {
		t.Fatal("zero cut on a connected mesh is impossible")
	}
	// The constraint is c(V_i) <= Lmax = ceil((1+eps) c(V)/k); on small
	// graphs the ceil makes the allowed raw imbalance exceed eps.
	total := g.TotalNodeWeight()
	allowed := float64(core.Lmax(total, 32, 0.03))*32/float64(total) - 1
	if m.Balance > allowed+1e-9 {
		t.Fatalf("imbalance %v exceeds allowed %v", m.Balance, allowed)
	}
	if m.J != 0 {
		t.Fatal("J computed without evalTop")
	}
	top := Config{Dist: "1:10:100"}.topoFor(2)
	m2, err := Measure(g, RunSpec{Alg: AlgNhOMS, K: top.Spec.K(), Eps: 0.03, Seed: 3}, 1, top)
	if err != nil {
		t.Fatal(err)
	}
	if m2.J <= 0 {
		t.Fatal("J missing with evalTop")
	}
}

func TestStateOfTheArtSweepAndFigures(t *testing.T) {
	s, err := RunStateOfTheArt(tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.cells) == 0 {
		t.Fatal("empty sweep")
	}
	fig2a, fig2b := s.Fig2a(), s.Fig2b()
	for _, tb := range []*Table{fig2a, fig2b, s.Fig2d(), s.Fig2e()} {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: no rows", tb.Title)
		}
	}
	// Hashing improvement over itself must be ~0 in figures 2a/2b.
	for _, tb := range []*Table{fig2a, fig2b} {
		for _, row := range tb.Rows {
			if v, ok := row.Cells[string(AlgHashing)]; ok {
				if v < -1e-6 || v > 1e-6 {
					t.Fatalf("%s: Hashing improvement over itself is %v", tb.Title, v)
				}
			}
		}
	}
	// Quality ordering that must already hold at tiny scale: the
	// multilevel comparator beats Hashing on cut for every k.
	for _, row := range fig2b.Rows {
		if row.Cells[string(AlgML)] <= row.Cells[string(AlgHashing)] {
			t.Fatalf("multilevel cut improvement %v not above Hashing %v (k=%s)",
				row.Cells[string(AlgML)], row.Cells[string(AlgHashing)], row.Key)
		}
	}
}

func TestProfileFractionsAreMonotone(t *testing.T) {
	s, err := RunStateOfTheArt(tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*Table{s.Fig2d(), s.Fig2e()} {
		prev := make(map[string]float64)
		for _, row := range tb.Rows {
			for alg, v := range row.Cells {
				if v < prev[alg]-1e-9 {
					t.Fatalf("%s: fraction decreases for %s", tb.Title, alg)
				}
				if v < 0 || v > 1 {
					t.Fatalf("%s: fraction %v outside [0,1]", tb.Title, v)
				}
				prev[alg] = v
			}
		}
		// At the largest tau every algorithm should reach 1.
		last := tb.Rows[len(tb.Rows)-1]
		for alg, v := range last.Cells {
			if v < 1-1e-9 {
				t.Fatalf("%s: %s tops out at %v < 1 (tau too small)", tb.Title, alg, v)
			}
		}
	}
}

func TestTuningTables(t *testing.T) {
	cfg := tinyConfig()
	cfg.Rs = []int32{2}
	tables, err := RunTuning(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("want 4 tuning tables, got %d", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) < 2 {
			t.Fatalf("%s: need at least base + variant", tb.Title)
		}
		base := tb.Rows[0]
		for _, col := range []string{"cut vs base %", "J vs base %"} {
			if v := base.Cells[col]; v < -1e-6 || v > 1e-6 {
				t.Fatalf("%s: base row self-improvement %v != 0", tb.Title, v)
			}
		}
	}
	// Hybrid table: hashing all layers must cut more edges than pure.
	hybrid := tables[3]
	pure := hybrid.Rows[0].Cells["cut"]
	all := hybrid.Rows[len(hybrid.Rows)-1].Cells["cut"]
	if all <= pure {
		t.Fatalf("hashing all layers cut %v not above pure %v", all, pure)
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tb := &Table{Title: "T", KeyName: "k", Columns: []string{"a", "b,c"}}
	tb.AddRow("1", map[string]float64{"a": 1.5, "b,c": 2})
	tb.AddRow("2", map[string]float64{"a": 0.25})
	var buf bytes.Buffer
	tb.Format(&buf)
	out := buf.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "1.500") {
		t.Fatalf("format output wrong:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatal("missing cell not rendered as -")
	}
	buf.Reset()
	tb.CSV(&buf)
	csv := buf.String()
	if !strings.Contains(csv, `"b,c"`) {
		t.Fatalf("CSV did not escape comma column:\n%s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV line count %d != 3", len(lines))
	}
}

func TestGeoMeanAgreesWithMetrics(t *testing.T) {
	// groupGeo must aggregate with the same geometric mean the metrics
	// package exposes (the paper's aggregator).
	s := &StateOfTheArt{
		cells: []cell{
			{alg: AlgFennel, instance: "a", k: 4, m: Measurement{Cut: 10}},
			{alg: AlgFennel, instance: "b", k: 4, m: Measurement{Cut: 1000}},
		},
	}
	geo := s.groupGeo(func(m Measurement) float64 { return m.Cut }, []AlgID{AlgFennel})
	want := metrics.GeoMean([]float64{10, 1000})
	if got := geo[4][AlgFennel]; got != want {
		t.Fatalf("groupGeo %v != metrics.GeoMean %v", got, want)
	}
}
