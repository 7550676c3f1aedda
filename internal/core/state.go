package core

import (
	"fmt"
	"sync/atomic"
)

// ExportState snapshots the run's mutable streaming state: the per-tree-
// block loads and the per-node leaf assignments. Together with the
// immutable construction inputs (tree, stats, config) this is everything
// a later ImportState needs to continue the stream at the exact next
// node — the paper's O(n + k) memory bound is also the size of a full
// checkpoint. Callers must hold the same serialization AssignNode
// requires; both slices are fresh copies.
func (o *OMS) ExportState() (loads []int64, parts []int32) {
	loads = o.TreeLoads()
	// Adaptive runs export only the covered prefix: the growth slack
	// past it is all -1 by construction, and trimming keeps exports
	// independent of the amortization schedule.
	parts = append([]int32(nil), o.parts[:o.Coverage()]...)
	return loads, parts
}

// ImportState restores state captured by ExportState into a freshly
// constructed OMS with the same tree, stats, and config. Because the
// per-node walk is deterministic for a fixed stream order and seed,
// AssignNode calls after an import continue bit-identically to the run
// the state was exported from.
func (o *OMS) ImportState(loads []int64, parts []int32) error {
	if len(loads) != len(o.blk) {
		return fmt.Errorf("core: import has %d tree-block loads, this tree has %d", len(loads), len(o.blk))
	}
	if o.est != nil {
		// Adaptive runs size the assignment vector by what has arrived;
		// grow to the checkpoint's coverage instead of comparing against
		// a declaration.
		o.growParts(int32(len(parts)))
		o.parts = o.parts[:len(parts)]
		o.coverage = int32(len(parts))
	} else if len(parts) != len(o.parts) {
		return fmt.Errorf("core: import has %d node assignments, this stream declares %d", len(parts), len(o.parts))
	}
	k := o.Tree.K
	for u, p := range parts {
		if p < -1 || p >= k {
			return fmt.Errorf("core: import assigns node %d to block %d outside [-1,%d)", u, p, k)
		}
	}
	for i := range loads {
		atomic.StoreInt64(&o.blk[i].load, loads[i])
	}
	copy(o.parts, parts)
	return nil
}
