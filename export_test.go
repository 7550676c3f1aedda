package oms

// EngineState exposes a session's engine state to the external tests:
// the per-tree-block loads (root first), a copy of the covered prefix of
// the assignment vector, and the consumed portion of the 2m edge budget.
func (s *Session) EngineState() (loads []int64, parts []int32, edgesSeen int64) {
	parts = append([]int32(nil), s.o.Assignments()[:s.o.Coverage()]...)
	return s.o.TreeLoads(), parts, s.edgesSeen
}
