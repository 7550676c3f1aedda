package refine

import (
	"context"
	"fmt"

	"oms"
)

// PassResult is one completed restream pass: the full assignment after
// the pass and its measured edge cut (each undirected edge counted once
// via its larger endpoint — exact under the paper's stream model, where
// every node arrives with its complete adjacency list).
type PassResult struct {
	Pass    int
	Parts   []int32
	EdgeCut int64
}

// Restream builds a private refinement replica by replaying seed — the
// assignment to refine, one block per node, -1 for nodes never assigned —
// over src (the session's recorded stream, typically a WAL replay), then
// drives passes retract-and-reassign passes over src. The replay charges
// every node's weight down its recorded root-to-leaf path (PushAssigned,
// no scoring): the O(k) tree loads are a function of assignment and
// stream, so this rebuilds the exact state the engine that produced seed
// held. After each pass it measures the edge cut with one more read of
// src and hands the result to publish; a publish error aborts the
// remaining passes. The context is honored between passes — a whole pass
// is the cancellation granularity, so every published version is a
// complete one.
//
// The replica is entirely private to this call: the live session's
// engine and served result are never touched, which is what lets
// refinement run concurrently with result reads.
func Restream(ctx context.Context, cfg oms.SessionConfig, src oms.Source, seed []int32, passes int, publish func(PassResult) error) error {
	if passes < 1 {
		return fmt.Errorf("refine: %d passes < 1", passes)
	}
	// The replica never records: the recorded stream is exactly what
	// src already is.
	cfg.Record = false
	eng, err := oms.NewSession(cfg)
	if err != nil {
		return err
	}
	n := int32(len(seed))
	var perr error
	err = src.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
		if perr != nil || u < 0 || u >= n || seed[u] < 0 {
			return
		}
		if _, err := eng.PushAssigned(u, vwgt, adj, ewgt, seed[u]); err != nil {
			perr = err
		}
	})
	if err == nil {
		err = perr
	}
	if err != nil {
		return fmt.Errorf("refine: replay seed assignment: %w", err)
	}
	// Adaptive replicas observed the whole stream just now but still
	// carry the headroom-inflated projection; reconcile so the passes
	// run under the exact totals, like the finished session did (no-op
	// for declared configs).
	eng.ReconcileStats()
	for p := 1; p <= passes; p++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := eng.RestreamFrom(src, 1)
		if err != nil {
			return err
		}
		cut, err := EdgeCut(src, res.Parts)
		if err != nil {
			return err
		}
		if err := publish(PassResult{Pass: p, Parts: res.Parts, EdgeCut: cut}); err != nil {
			return err
		}
	}
	return nil
}

// EdgeCut measures the weight of cut edges of parts with one sequential
// read of src. Each undirected edge is counted at its larger endpoint;
// edges into unassigned nodes (-1) do not count, matching the service's
// finish-summary metric.
func EdgeCut(src oms.Source, parts []int32) (int64, error) {
	var cut int64
	n := int32(len(parts))
	err := src.ForEach(func(u int32, _ int32, adj []int32, ewgt []int32) {
		if u < 0 || u >= n {
			return
		}
		pu := parts[u]
		if pu < 0 {
			return
		}
		for i, nb := range adj {
			if nb <= u || nb >= n || parts[nb] < 0 || parts[nb] == pu {
				continue
			}
			if ewgt != nil {
				cut += int64(ewgt[i])
			} else {
				cut++
			}
		}
	})
	if err != nil {
		return 0, err
	}
	return cut, nil
}
