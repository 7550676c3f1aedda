package onepass

import "oms/internal/stream"

// Algorithm is a flat one-pass streaming partitioner as Run drives it:
// Assign permanently places node u given its adjacency, and Assignments
// returns the partition vector once the pass is over. Implementations
// must tolerate concurrent Assign calls with distinct worker indices
// (shared state is atomic).
type Algorithm interface {
	Assign(worker int, u int32, vwgt int32, adj []int32, ewgt []int32) int32
	Assignments() []int32
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
