package bench

import (
	"fmt"
	"io"

	"oms/internal/core"
	"oms/internal/metrics"
	"oms/internal/onepass"
	"oms/internal/stream"
)

// RunStreamOrder is the stream-order ablation: the paper streams every
// instance in its natural order (§4 "we stream the graphs with the
// natural given order of the nodes"); this experiment quantifies how
// much that choice matters by re-running nh-OMS and Fennel under random,
// degree-ordered, and BFS arrival orders. Related work (Awadelkarim &
// Ugander) studies exactly this sensitivity for flat one-pass
// partitioners.
func RunStreamOrder(cfg Config, progressW io.Writer) (*Table, error) {
	cfg = cfg.withDefaults()
	k := int32(1024)
	orders := []stream.Order{
		stream.OrderNatural,
		stream.OrderBFS,
		stream.OrderDegreeDesc,
		stream.OrderDegreeAsc,
		stream.OrderRandom,
	}
	algs := []AlgID{AlgNhOMS, AlgFennel}
	cols := make([]string, 0, len(algs)*len(orders))
	for _, a := range algs {
		for _, o := range orders {
			cols = append(cols, fmt.Sprintf("%s/%s", a, o))
		}
	}
	t := &Table{
		Title:   fmt.Sprintf("Stream-order ablation: edge-cut by arrival order (k=%d)", k),
		KeyName: "Graph",
		Columns: cols,
		Notes: []string{
			"cut of one run per (algorithm, order); natural order is the paper's setting",
		},
	}
	for _, ins := range cfg.Instances {
		g := ins.BuildCached(cfg.Scale)
		if int64(k) > int64(g.NumNodes()) {
			continue
		}
		row := make(map[string]float64, len(cols))
		for _, alg := range algs {
			for _, order := range orders {
				src := stream.NewReordered(g, order, cfg.Seed)
				st, err := src.Stats()
				if err != nil {
					return nil, err
				}
				var parts []int32
				switch alg {
				case AlgNhOMS:
					o, err := core.NewGP(k, 4, st, core.Config{Epsilon: 0.03, Seed: cfg.Seed})
					if err != nil {
						return nil, err
					}
					parts, err = o.Run(src)
					if err != nil {
						return nil, err
					}
				case AlgFennel:
					f, err := onepass.NewFennel(onepass.Config{K: k, Epsilon: 0.03, Seed: cfg.Seed}, st, 1)
					if err != nil {
						return nil, err
					}
					parts, err = onepass.Run(src, f)
					if err != nil {
						return nil, err
					}
				}
				row[fmt.Sprintf("%s/%s", alg, order)] = float64(metrics.EdgeCut(g, parts))
			}
		}
		t.AddRow(ins.Name, row)
		if progressW != nil {
			fmt.Fprintf(progressW, "done order ablation %s\n", ins.Name)
		}
	}
	return t, nil
}
