package onepass

import "oms/internal/stream"

// Algorithm is a flat one-pass streaming partitioner as Run drives it:
// Assign permanently places node u given its adjacency, and Assignments
// returns the partition vector once the pass is over. Assign is not safe
// for concurrent use. Its worker argument is accepted and ignored;
// Blocked 1A(h) removes it.
type Algorithm interface {
	Assign(worker int, u int32, vwgt int32, adj []int32, ewgt []int32) int32
	Assignments() []int32
}

// Run performs one full pass of alg over src in stream order and returns
// the partition vector.
func Run(src stream.Source, alg Algorithm) ([]int32, error) {
	err := src.ForEach(func(u int32, vwgt int32, adj []int32, ewgt []int32) {
		alg.Assign(0, u, vwgt, adj, ewgt)
	})
	if err != nil {
		return nil, err
	}
	return alg.Assignments(), nil
}
