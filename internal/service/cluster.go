package service

import "oms/internal/store"

// ClusterView is how the service layer sees cluster mode, defined here
// (the consumer) so internal/cluster — which already builds on this
// package's Store and SessionLog — can implement it without an import
// cycle. Nil in Config means single-node: no routing, no redirects,
// /v1/cluster answers {"enabled": false}.
//
// Placement must be a pure function of the session id and the member
// list (internal/cluster derives it from a deterministic consistent-
// hash ring), because three parties compute it independently and must
// agree: the creating node (which samples ids it owns), any node a
// request lands on (which redirects misrouted sessions), and the
// client (which routes without asking).
type ClusterView interface {
	// Self returns this node's id.
	Self() string
	// Owner maps a session id to the node currently responsible for it
	// — the ring owner among the peers this node believes alive — and
	// that node's base URL ("http://host:port"). The HTTP layer turns a
	// request for a session this node does not hold into a 307 at addr.
	Owner(id string) (node, addr string)
	// OwnsID reports whether this node owns id. Create rejection-samples
	// fresh ids through it so every session starts on its ring owner.
	OwnsID(id string) bool
	// Table renders the routing table served by GET /v1/cluster: self,
	// epoch, members with liveness, the ring parameters clients rebuild
	// the ring from, and this node's admission budget.
	Table(admission AdmissionInfo) any
}

// AdmissionInfo is one node's admission budget snapshot, embedded in
// the /v1/cluster table so a balancer (or the multi-endpoint load
// harness) can weigh nodes by headroom instead of guessing.
type AdmissionInfo struct {
	MaxSessions   int   `json:"max_sessions"`
	LiveSessions  int   `json:"live_sessions"`
	MaxTotalNodes int64 `json:"max_total_nodes"`
	LiveNodes     int64 `json:"live_nodes"`
}

// AdmissionSnapshot reports the manager's live admission accounting.
func (mg *Manager) AdmissionSnapshot() AdmissionInfo {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return AdmissionInfo{
		MaxSessions:   mg.cfg.MaxSessions,
		LiveSessions:  len(mg.sessions),
		MaxTotalNodes: mg.cfg.MaxTotalNodes,
		LiveNodes:     mg.liveNodes,
	}
}

// Adopt registers one recovered session into the live manager — the
// cluster promotion path. A follower that inherited a dead owner's
// sessions moves each shipped log into its own store, runs the ordinary
// single-session recovery over it, and adopts the result; from then on
// the session is served here exactly as if this node had always owned
// it, because the deterministic replay reproduces the lost node's
// engine state bit for bit.
func (mg *Manager) Adopt(rec store.RecoveredSession) error {
	return mg.restoreSession(rec)
}
