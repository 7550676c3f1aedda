package bench

import (
	"fmt"
	"sort"

	"oms/internal/metrics"
)

// ks returns the sorted distinct k values of the sweep.
func (s *StateOfTheArt) ks() []int32 {
	seen := make(map[int32]bool)
	for _, c := range s.cells {
		seen[c.k] = true
	}
	out := make([]int32, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Fig2a builds the mapping-improvement-over-Hashing table (paper Figure
// 2a): per k, the percentage (J_Hashing/J_A - 1)*100 of the geometric
// means across instances. Higher is better.
func (s *StateOfTheArt) Fig2a() *Table {
	algs := []AlgID{AlgHashing, AlgOMS, AlgFennel, AlgML}
	if s.cfg.IncludeIntMap {
		algs = append(algs, AlgIntMap)
	}
	return s.improvementTable(
		"Figure 2a: mapping improvement over Hashing (%) vs k",
		algs, AlgHashing,
		func(m Measurement) float64 { return m.J })
}

// Fig2b builds the edge-cut-improvement-over-Hashing table (Figure 2b).
func (s *StateOfTheArt) Fig2b() *Table {
	return s.improvementTable(
		"Figure 2b: edge-cut improvement over Hashing (%) vs k",
		[]AlgID{AlgHashing, AlgNhOMS, AlgFennel, AlgML}, AlgHashing,
		func(m Measurement) float64 { return m.Cut })
}

// improvementTable is the shared shape of Figures 2a and 2b.
func (s *StateOfTheArt) improvementTable(title string, algs []AlgID, base AlgID, metric func(Measurement) float64) *Table {
	geo := s.groupGeo(metric, algs)
	t := &Table{
		Title:   title,
		KeyName: "k",
		Columns: algIDStrings(algs),
		Notes:   []string{fmt.Sprintf("improvement = (geomean %s / geomean alg - 1) * 100%%, per k", base)},
	}
	for _, k := range s.ks() {
		row := make(map[string]float64, len(algs))
		b, ok := geo[k][base]
		if !ok {
			continue
		}
		for _, a := range algs {
			if v, ok := geo[k][a]; ok {
				row[string(a)] = metrics.Improvement(b, v)
			}
		}
		t.AddRow(fmt.Sprintf("%d", k), row)
	}
	return t
}

// profileTable renders a metrics.Profile as a Table with tau rows.
func profileTable(title string, p metrics.Profile) *Table {
	t := &Table{
		Title:   title,
		KeyName: "tau",
		Columns: sortedKeys(p.Fraction),
		Notes:   []string{"fraction of (instance, k) points within tau of the per-point best"},
	}
	for i, tau := range p.Tau {
		row := make(map[string]float64, len(p.Fraction))
		for name, fr := range p.Fraction {
			row[name] = fr[i]
		}
		t.AddRow(formatNum(tau), row)
	}
	return t
}

// perPoint collects, for each algorithm, the metric of every (instance,
// k) point of the sweep in a fixed point order.
func (s *StateOfTheArt) perPoint(metric func(Measurement) float64, algs []AlgID) map[string][]float64 {
	type point struct {
		instance string
		k        int32
	}
	idx := make(map[point]int)
	var points []point
	for _, c := range s.cells {
		p := point{c.instance, c.k}
		if _, ok := idx[p]; !ok {
			idx[p] = len(points)
			points = append(points, p)
		}
	}
	out := make(map[string][]float64, len(algs))
	for _, a := range algs {
		out[string(a)] = make([]float64, len(points))
	}
	for _, c := range s.cells {
		if vs, ok := out[string(c.alg)]; ok {
			vs[idx[point{c.instance, c.k}]] = metric(c.m)
		}
	}
	return out
}

// Fig2d builds the mapping performance profile (Figure 2d).
func (s *StateOfTheArt) Fig2d() *Table {
	algs := []AlgID{AlgHashing, AlgOMS, AlgFennel, AlgML}
	p := metrics.PerformanceProfile(s.perPoint(func(m Measurement) float64 { return m.J }, algs), metrics.DefaultTaus(128))
	return profileTable("Figure 2d: mapping performance profile", p)
}

// Fig2e builds the edge-cut performance profile (Figure 2e).
func (s *StateOfTheArt) Fig2e() *Table {
	algs := []AlgID{AlgHashing, AlgNhOMS, AlgFennel, AlgML}
	p := metrics.PerformanceProfile(s.perPoint(func(m Measurement) float64 { return m.Cut }, algs), metrics.DefaultTaus(128))
	return profileTable("Figure 2e: edge-cut performance profile", p)
}

func algIDStrings(algs []AlgID) []string {
	out := make([]string, len(algs))
	for i, a := range algs {
		out[i] = string(a)
	}
	return out
}
