package bench

import (
	"fmt"

	"oms/internal/core"
	"oms/internal/graph"
	"oms/internal/hierarchy"
	"oms/internal/mapping"
	"oms/internal/metrics"
	"oms/internal/multilevel"
	"oms/internal/onepass"
	"oms/internal/stream"
)

// AlgID names one competitor of the evaluation.
type AlgID string

// The algorithms of the paper's evaluation. AlgML is the bundled
// multilevel partitioner standing in for KaMinPar; AlgIntMap is the
// offline recursive multi-section mapper standing in for IntMap.
const (
	AlgHashing AlgID = "Hashing"
	AlgLDG     AlgID = "LDG"
	AlgFennel  AlgID = "Fennel"
	AlgOMS     AlgID = "OMS"
	AlgNhOMS   AlgID = "nh-OMS"
	AlgML      AlgID = "KaMinPar*"
	AlgIntMap  AlgID = "IntMap*"
)

// RunSpec describes one algorithm execution on one instance.
type RunSpec struct {
	Alg  AlgID
	K    int32               // blocks (ignored when Top is set for OMS/IntMap)
	Top  *hierarchy.Topology // non-nil for process-mapping runs
	Eps  float64
	Seed uint64
	// OMS knobs (tuning experiments).
	Scorer       core.Scorer
	Base         int32 // artificial hierarchy base; 0 means 4
	HashLayers   int
	VanillaAlpha bool
}

// Execute runs the specified algorithm sequentially on g, streaming it
// from memory in its natural order, and returns the partition.
func Execute(g *graph.Graph, sp RunSpec) ([]int32, error) {
	if sp.Eps == 0 {
		sp.Eps = 0.03
	}
	if sp.Base == 0 {
		sp.Base = 4
	}
	src := stream.NewMemory(g)
	st, err := src.Stats()
	if err != nil {
		return nil, err
	}
	k := sp.K
	if sp.Top != nil {
		k = sp.Top.Spec.K()
	}
	cfg := onepass.Config{K: k, Epsilon: sp.Eps, Seed: sp.Seed}

	switch sp.Alg {
	case AlgHashing:
		alg, err := onepass.NewHashing(cfg, st)
		if err != nil {
			return nil, err
		}
		return onepass.Run(src, alg)
	case AlgLDG:
		alg, err := onepass.NewLDG(cfg, st)
		if err != nil {
			return nil, err
		}
		return onepass.Run(src, alg)
	case AlgFennel:
		alg, err := onepass.NewFennel(cfg, st, 1)
		if err != nil {
			return nil, err
		}
		return onepass.Run(src, alg)
	case AlgOMS:
		if sp.Top == nil {
			return nil, fmt.Errorf("bench: OMS requires a topology (use nh-OMS for plain partitioning)")
		}
		o, err := core.New(hierarchy.FromSpec(sp.Top.Spec), st, coreCfg(sp))
		if err != nil {
			return nil, err
		}
		return o.Run(src)
	case AlgNhOMS:
		o, err := core.NewGP(k, sp.Base, st, coreCfg(sp))
		if err != nil {
			return nil, err
		}
		return o.Run(src)
	case AlgML:
		return multilevel.Partition(g, k, multilevel.Options{Epsilon: sp.Eps, Seed: sp.Seed})
	case AlgIntMap:
		if sp.Top == nil {
			return nil, fmt.Errorf("bench: IntMap requires a topology")
		}
		return mapping.OfflineMap(g, sp.Top, mapping.Options{Epsilon: sp.Eps, Seed: sp.Seed, SwapRounds: 3})
	default:
		return nil, fmt.Errorf("bench: unknown algorithm %q", sp.Alg)
	}
}

func coreCfg(sp RunSpec) core.Config {
	return core.Config{
		Epsilon:      sp.Eps,
		Scorer:       sp.Scorer,
		VanillaAlpha: sp.VanillaAlpha,
		HashLayers:   sp.HashLayers,
		Seed:         sp.Seed,
	}
}

// Measurement aggregates repetitions of one (algorithm, instance,
// configuration) cell, following §4: arithmetic mean over repetitions.
type Measurement struct {
	Cut     float64 // mean edge-cut
	J       float64 // mean mapping cost (0 unless Top was set)
	Balance float64 // worst imbalance observed across repetitions
}

// Measure executes sp Repetitions times with derived seeds and averages,
// computing quality metrics on each run's partition. evalTop, when
// non-nil, is the topology J is evaluated against — it may differ from
// sp.Top: flat algorithms (Hashing, Fennel, nh-OMS, the multilevel
// partitioner) ignore the hierarchy while running but are still scored
// on it with their blocks mapped identically onto PEs, exactly as the
// paper compares them.
func Measure(g *graph.Graph, sp RunSpec, repetitions int, evalTop *hierarchy.Topology) (Measurement, error) {
	if repetitions < 1 {
		repetitions = 1
	}
	var m Measurement
	k := sp.K
	if sp.Top != nil {
		k = sp.Top.Spec.K()
	}
	for rep := 0; rep < repetitions; rep++ {
		rsp := sp
		rsp.Seed = sp.Seed + uint64(rep)*0x9e3779b97f4a7c15
		parts, err := Execute(g, rsp)
		if err != nil {
			return Measurement{}, err
		}
		m.Cut += float64(metrics.EdgeCut(g, parts))
		if evalTop != nil {
			m.J += metrics.MappingCost(g, parts, evalTop)
		}
		if b := metrics.Imbalance(g, parts, k); b > m.Balance {
			m.Balance = b
		}
	}
	f := float64(repetitions)
	m.Cut /= f
	m.J /= f
	return m, nil
}
