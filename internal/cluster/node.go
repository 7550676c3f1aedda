package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oms/internal/ring"
	"oms/internal/service"
	"oms/internal/trace"
	"oms/internal/wal"
)

// Config configures one cluster member.
type Config struct {
	// Self is this node's id; it must appear as a key in Peers.
	Self string
	// Peers maps every member's node id (including Self) to its base URL
	// ("http://host:port"). The member set is static for the life of the
	// process; liveness within it is probed.
	Peers map[string]string
	// Vnodes is the virtual-node count per member (DefaultVnodes if 0).
	// All members and all clients must agree on it.
	Vnodes int
	// Store is the node's primary session store; owned sessions live
	// there and their logs are shipped out of it.
	Store *wal.Store
	// Replicas is the store that holds logs shipped *to* this node —
	// opened over a sibling directory so a promotion is a rename away.
	Replicas *wal.Store
	// AckMode is "async" (Flush returns after local durability; the
	// follower catches up in the background) or "sync" (Flush also waits
	// — bounded by AckTimeout — for the follower to acknowledge the
	// flushed prefix).
	AckMode string
	// AckTimeout bounds a sync-mode Flush wait; on expiry the Flush
	// degrades to async for that chunk (counted, never blocking ingest
	// indefinitely on a stalled follower). Default 2s.
	AckTimeout time.Duration
	// ProbeInterval is the peer health-probe period (default 500ms);
	// FailThreshold consecutive probe failures mark a peer dead
	// (default 3).
	ProbeInterval time.Duration
	FailThreshold int
	// Registry receives the cluster counters and gauges; Tracer, when
	// set, records ship/ack spans for sampled replication streams.
	Registry *service.Registry
	Tracer   *trace.Recorder
	// Logf, when set, receives one line per membership transition,
	// promotion, and replication stream error.
	Logf func(format string, args ...any)
	// HTTPClient overrides the client used for probes and shipping.
	HTTPClient *http.Client
}

// Node is one omsd process's view of the cluster: the probed member
// ring, the shipping side of replication for sessions it owns, and the
// receiving side for sessions it follows. It implements
// service.ClusterView (routing), service.Store (decorating Config.Store
// with replication), and http.Handler (the /v1/replica/sessions/{id}
// surface).
type Node struct {
	cfg Config
	hc  *http.Client

	ring  atomic.Pointer[ring.Ring] // over members currently believed alive
	epoch atomic.Int64

	mu       sync.Mutex
	fails    map[string]int
	alive    map[string]bool
	shippers map[string]*shipper
	repl     map[string]*replicaStream // inbound streams by session id
	mgr      *service.Manager
	closed   bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// metrics
	probeFailures *service.Counter
	transitions   *service.Counter
	promotions    *service.Counter
	shipBytes     *service.Counter
	acks          *service.Counter
	nacks         *service.Counter
	reconnects    *service.Counter
	syncDegraded  *service.Counter
	replRejects   *service.Counter
}

// NewNode validates the configuration, seeds the ring with every peer
// presumed alive, registers the cluster metrics, and starts the prober.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: empty node id")
	}
	if _, ok := cfg.Peers[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: node id %q not in peer list", cfg.Self)
	}
	if len(cfg.Peers) < 2 {
		return nil, errors.New("cluster: need at least 2 peers")
	}
	switch cfg.AckMode {
	case "", "async":
		cfg.AckMode = "async"
	case "sync":
	default:
		return nil, fmt.Errorf("cluster: unknown ack mode %q", cfg.AckMode)
	}
	if cfg.Vnodes <= 0 {
		cfg.Vnodes = ring.DefaultVnodes
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 2 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := &Node{
		cfg:      cfg,
		hc:       cfg.HTTPClient,
		fails:    map[string]int{},
		alive:    map[string]bool{},
		shippers: map[string]*shipper{},
		repl:     map[string]*replicaStream{},
	}
	if n.hc == nil {
		n.hc = &http.Client{}
	}
	for id := range cfg.Peers {
		n.alive[id] = true
	}
	n.ring.Store(ring.NewRing(n.aliveMembersLocked(), cfg.Vnodes))
	n.ctx, n.cancel = context.WithCancel(context.Background())
	if r := cfg.Registry; r != nil {
		n.probeFailures = r.Counter("oms_cluster_probe_failures_total", "Peer health probes that failed.")
		n.transitions = r.Counter("oms_cluster_transitions_total", "Peer liveness transitions (alive<->dead).")
		n.promotions = r.Counter("oms_cluster_promotions_total", "Replica sessions promoted to owned after a peer death.")
		n.shipBytes = r.Counter("oms_repl_ship_bytes_total", "WAL bytes shipped to followers.")
		n.acks = r.Counter("oms_repl_acks_total", "Follower acknowledgements received.")
		n.nacks = r.Counter("oms_repl_nacks_total", "Follower rejections (corrupt frame) received.")
		n.reconnects = r.Counter("oms_repl_reconnects_total", "Replication stream reconnects.")
		n.syncDegraded = r.Counter("oms_repl_sync_degraded_total", "Sync-mode flushes that timed out waiting for the follower and degraded to async.")
		n.replRejects = r.Counter("oms_repl_rejects_total", "Inbound replication streams rejected (not the follower, or session promoted).")
		r.GaugeFunc("oms_cluster_epoch", "Membership epoch, bumped on every liveness transition.", n.epoch.Load)
		r.GaugeFunc("oms_cluster_peers_alive", "Peers currently believed alive, including self.", func() int64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			var c int64
			for _, ok := range n.alive {
				if ok {
					c++
				}
			}
			return c
		})
		r.GaugeFunc("oms_repl_lag_bytes", "Total flushed-but-unacknowledged WAL bytes across owned sessions.", n.lagBytes)
		r.GaugeFunc("oms_repl_sessions", "Owned sessions with an active replication shipper.", func() int64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			return int64(len(n.shippers))
		})
	}
	n.wg.Add(1)
	go n.probeLoop()
	return n, nil
}

// Bind hands the node its manager once constructed. Promotion needs it
// (adopted sessions are registered live); until bound, promotions are
// deferred to the next membership scan.
func (n *Node) Bind(mgr *service.Manager) {
	n.mu.Lock()
	n.mgr = mgr
	n.mu.Unlock()
	n.promoteOwned()
}

// Close stops the prober and every replication stream. Session logs are
// closed by the manager, not here.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	shippers := make([]*shipper, 0, len(n.shippers))
	for _, sh := range n.shippers {
		shippers = append(shippers, sh)
	}
	n.mu.Unlock()
	n.cancel()
	for _, sh := range shippers {
		sh.stop()
	}
	n.wg.Wait()
}

func (n *Node) aliveMembersLocked() []string {
	m := make([]string, 0, len(n.alive))
	for id, ok := range n.alive {
		if ok {
			m = append(m, id)
		}
	}
	sort.Strings(m)
	return m
}

// --- service.ClusterView ---

// Self returns this node's id.
func (n *Node) Self() string { return n.cfg.Self }

// Owner maps a session id to its current ring owner and that node's
// base URL.
func (n *Node) Owner(id string) (node, addr string) {
	o := n.ring.Load().Owner(id)
	return o, n.cfg.Peers[o]
}

// OwnsID reports whether this node is the ring owner of id.
func (n *Node) OwnsID(id string) bool { return n.ring.Load().Owner(id) == n.cfg.Self }

// TableMember is one member row of the /v1/cluster document.
type TableMember struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
}

// TableDoc is the /v1/cluster routing table: everything a client needs
// to rebuild the ring this node routes by, plus this node's admission
// budget. Epoch increments on every liveness transition, so a client
// can cheaply detect that its cached table is stale.
type TableDoc struct {
	Enabled   bool                  `json:"enabled"`
	Self      string                `json:"self"`
	Epoch     int64                 `json:"epoch"`
	Vnodes    int                   `json:"vnodes"`
	Members   []TableMember         `json:"members"`
	Admission service.AdmissionInfo `json:"admission"`
}

// Table renders the routing table served by GET /v1/cluster.
func (n *Node) Table(adm service.AdmissionInfo) any {
	n.mu.Lock()
	defer n.mu.Unlock()
	doc := TableDoc{
		Enabled:   true,
		Self:      n.cfg.Self,
		Epoch:     n.epoch.Load(),
		Vnodes:    n.cfg.Vnodes,
		Admission: adm,
	}
	for _, id := range sortedKeys(n.cfg.Peers) {
		doc.Members = append(doc.Members, TableMember{ID: id, Addr: n.cfg.Peers[id], Alive: n.alive[id]})
	}
	return doc
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// --- membership probing ---

func (n *Node) probeLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
		}
		changed := false
		for id, addr := range n.cfg.Peers {
			if id == n.cfg.Self {
				continue
			}
			if n.probeOne(id, addr) {
				changed = true
			}
		}
		if changed {
			n.promoteOwned()
			n.wakeShippers()
		}
	}
}

// probeOne probes one peer and applies the liveness transition; it
// reports whether the member set changed.
func (n *Node) probeOne(id, addr string) bool {
	ctx, cancel := context.WithTimeout(n.ctx, n.cfg.ProbeInterval)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(ctx, "GET", addr+"/v1/healthz", nil)
	if err == nil {
		resp, err := n.hc.Do(req)
		if err == nil {
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if ok {
		n.fails[id] = 0
		if !n.alive[id] {
			n.alive[id] = true
			n.rebuildLocked(id, "rejoined")
			return true
		}
		return false
	}
	n.fails[id]++
	if n.probeFailures != nil {
		n.probeFailures.Inc()
	}
	if n.alive[id] && n.fails[id] >= n.cfg.FailThreshold {
		n.alive[id] = false
		n.rebuildLocked(id, "dead")
		return true
	}
	return false
}

func (n *Node) rebuildLocked(id, what string) {
	n.ring.Store(ring.NewRing(n.aliveMembersLocked(), n.cfg.Vnodes))
	n.epoch.Add(1)
	if n.transitions != nil {
		n.transitions.Inc()
	}
	n.cfg.Logf("cluster: peer %s %s (epoch %d, alive %v)", id, what, n.epoch.Load(), n.aliveMembersLocked())
}

// wakeShippers nudges every shipper so it re-resolves its follower
// after a membership change.
func (n *Node) wakeShippers() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, sh := range n.shippers {
		sh.nudge()
	}
}

// --- promotion ---

// promoteOwned scans the replica store for sessions whose ring owner is
// now this node and adopts them: close the inbound stream, move the
// shipped log into the primary store, recover it through the ordinary
// crash-recovery path, and register the live session. Idempotent — a
// session already live locally is skipped, so repeated scans (every
// membership transition, plus Bind) are safe.
func (n *Node) promoteOwned() {
	n.mu.Lock()
	mgr := n.mgr
	n.mu.Unlock()
	if mgr == nil {
		return
	}
	ids, err := n.cfg.Replicas.ReplicaIDs()
	if err != nil {
		n.cfg.Logf("cluster: replica scan: %v", err)
		return
	}
	ring := n.ring.Load()
	for _, id := range ids {
		if ring.Owner(id) != n.cfg.Self {
			continue
		}
		if _, err := mgr.Get(id); !errors.Is(err, service.ErrNotFound) {
			continue // live here already, or tombstoned
		}
		if err := n.promoteOne(mgr, id); err != nil {
			n.cfg.Logf("cluster: promote %s: %v", id, err)
			continue
		}
		if n.promotions != nil {
			n.promotions.Inc()
		}
		n.cfg.Logf("cluster: promoted session %s", id)
	}
}

func (n *Node) promoteOne(mgr *service.Manager, id string) error {
	// Detach the inbound stream first: after the rename the old owner
	// must not keep appending to a file the session now owns.
	n.closeReplicaStream(id, "promoted")
	if err := n.cfg.Store.AdoptFrom(n.cfg.Replicas, id); err != nil {
		return err
	}
	rec, err := n.cfg.Store.RecoverSession(id)
	if err != nil {
		return err
	}
	n.replicateReplay(&rec)
	if err := mgr.Adopt(rec); err != nil {
		n.dropShipper(id, false) // Adopt closed any log its replay opened
		return err
	}
	return nil
}

func (n *Node) lagBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var lag int64
	for _, sh := range n.shippers {
		lag += sh.lag()
	}
	return lag
}
