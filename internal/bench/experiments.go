package bench

import (
	"fmt"
	"io"
	"runtime"

	"oms/internal/hierarchy"
	"oms/internal/metrics"
)

// Config drives a harness run. Zero values select a laptop-scale
// configuration that exercises the same sweeps as the paper; Scale 1.0
// matches the original instance sizes.
type Config struct {
	// Scale shrinks instances proportionally; 0 means 0.05.
	Scale float64
	// Reps repeats each measurement with fresh seeds; 0 means 3 (the
	// paper uses 10).
	Reps int
	// Rs are the third hierarchy factors of the PM sweeps (S = 4:16:r,
	// k = 64r); 0 means {16, 32, 64, 128} matching the plotted range
	// 2^10..2^13.
	Rs []int32
	// Threads for the quality experiments; 0 means 1 (sequential), the
	// paper's setting outside §4.2.
	Threads int
	// ThreadSweep for the scalability experiments; 0 means
	// {1, 2, 4, 8, 16, 32} capped at GOMAXPROCS.
	ThreadSweep []int
	// Instances; nil means the full Table 1 set.
	Instances []Instance
	// IncludeIntMap adds the offline mapper to the mapping experiments
	// (the paper ran it with a 30-minute timeout and excluded it from
	// plots; it is sequential and slow).
	IncludeIntMap bool
	// Dist is the level-distance string; "" means the paper's 1:10:100.
	Dist string
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.05
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if len(c.Rs) == 0 {
		c.Rs = []int32{16, 32, 64, 128}
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
	if len(c.ThreadSweep) == 0 {
		max := runtime.GOMAXPROCS(0)
		for _, t := range []int{1, 2, 4, 8, 16, 32} {
			if t <= max {
				c.ThreadSweep = append(c.ThreadSweep, t)
			}
		}
		if len(c.ThreadSweep) == 0 {
			c.ThreadSweep = []int{1}
		}
	}
	if c.Instances == nil {
		c.Instances = Table1
	}
	if c.Dist == "" {
		c.Dist = "1:10:100"
	}
	return c
}

// topoFor builds the paper's S = 4:16:r topology (k = 64r).
func (c Config) topoFor(r int32) *hierarchy.Topology {
	spec := hierarchy.Spec{Factors: []int32{4, 16, r}}
	dist := hierarchy.MustDistances(c.Dist)
	return hierarchy.MustTopology(spec, dist)
}

// cell is one (alg, instance, k) measurement of the state-of-the-art
// sweep.
type cell struct {
	alg      AlgID
	instance string
	k        int32
	m        Measurement
}

// StateOfTheArt runs the shared sweep behind Figures 2a-2f: for every
// instance and every r (k = 64r), it measures the mapping algorithms
// (Hashing, OMS, Fennel, KaMinPar*, optional IntMap*) on S = 4:16:r and
// the partitioning algorithms (nh-OMS) at the same k. One sweep feeds
// all six figures.
type StateOfTheArt struct {
	cfg   Config
	cells []cell
}

// RunStateOfTheArt executes the sweep, reporting progress to progressW
// (may be nil).
func RunStateOfTheArt(cfg Config, progressW io.Writer) (*StateOfTheArt, error) {
	cfg = cfg.withDefaults()
	s := &StateOfTheArt{cfg: cfg}
	algs := []AlgID{AlgHashing, AlgOMS, AlgNhOMS, AlgFennel, AlgML}
	if cfg.IncludeIntMap {
		algs = append(algs, AlgIntMap)
	}
	for _, ins := range cfg.Instances {
		g := ins.BuildCached(cfg.Scale)
		for _, r := range cfg.Rs {
			top := cfg.topoFor(r)
			k := top.Spec.K()
			if int64(k) > int64(g.NumNodes()) {
				continue // k exceeds node count at this scale
			}
			for _, alg := range algs {
				sp := RunSpec{Alg: alg, K: k, Eps: 0.03, Threads: cfg.Threads, Seed: cfg.Seed}
				if alg == AlgOMS || alg == AlgIntMap {
					// Only the hierarchical algorithms see the topology.
					sp.Top = top
				}
				m, err := Measure(g, sp, cfg.Reps, top)
				if err != nil {
					return nil, fmt.Errorf("%s on %s k=%d: %w", alg, ins.Name, k, err)
				}
				s.cells = append(s.cells, cell{alg: alg, instance: ins.Name, k: k, m: m})
			}
			if progressW != nil {
				fmt.Fprintf(progressW, "done %s k=%d\n", ins.Name, k)
			}
		}
	}
	return s, nil
}

// groupGeo aggregates cells: geometric mean of metric over instances,
// grouped by k, per algorithm.
func (s *StateOfTheArt) groupGeo(metric func(Measurement) float64, algs []AlgID) map[int32]map[AlgID]float64 {
	byK := make(map[int32]map[AlgID][]float64)
	for _, c := range s.cells {
		if byK[c.k] == nil {
			byK[c.k] = make(map[AlgID][]float64)
		}
		byK[c.k][c.alg] = append(byK[c.k][c.alg], metric(c.m))
	}
	out := make(map[int32]map[AlgID]float64, len(byK))
	for k, m := range byK {
		out[k] = make(map[AlgID]float64, len(m))
		for _, alg := range algs {
			if vs, ok := m[alg]; ok {
				out[k][alg] = metrics.GeoMean(vs)
			}
		}
	}
	return out
}
