package onepass

import (
	"fmt"

	"oms/internal/stream"
)

// Algorithm is a one-pass streaming partitioner: Assign permanently
// places node u given its adjacency; implementations must tolerate
// concurrent calls with distinct worker indices (shared state is atomic).
type Algorithm interface {
	Name() string
	Assign(worker int, u int32, vwgt int32, adj []int32, ewgt []int32) int32
	Assignments() []int32
	K() int32
}

// Run performs one full pass of alg over src with up to threads workers
// (see stream.Parallel; <= 1 means sequential and deterministic) and
// returns the partition vector.
func Run(src stream.Source, alg Algorithm, threads int) ([]int32, error) {
	err := stream.Parallel(src, threads, func(worker int, u int32, vwgt int32, adj []int32, ewgt []int32) {
		alg.Assign(worker, u, vwgt, adj, ewgt)
	})
	if err != nil {
		return nil, err
	}
	return alg.Assignments(), nil
}

// Restreamable is implemented by algorithms whose assignments can be
// retracted, enabling the multi-pass restreaming model of Nishimura and
// Ugander (ReLDG / ReFennel, §2.2 of the paper).
type Restreamable interface {
	Unassign(u int32, vwgt int32)
}

// Restream performs one initial pass of alg over src followed by passes
// additional sequential passes: in each, every node is first removed
// from its block and then re-assigned with full knowledge of the
// previous pass — the ReFennel/ReLDG iterative-improvement scheme. The
// first pass may run with threads workers; restream passes are
// sequential so the retract-re-place pair stays atomic.
func Restream(src stream.Source, alg Algorithm, passes int, threads int) ([]int32, error) {
	if passes < 0 {
		return nil, fmt.Errorf("onepass: negative restream passes %d", passes)
	}
	re, ok := alg.(Restreamable)
	if !ok && passes > 0 {
		return nil, fmt.Errorf("onepass: %s does not support restreaming", alg.Name())
	}
	parts, err := Run(src, alg, threads)
	if err != nil {
		return nil, err
	}
	for p := 0; p < passes; p++ {
		err := src.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
			re.Unassign(u, vwgt)
			alg.Assign(0, u, vwgt, adj, ewgt)
		})
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}
