package cluster

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"oms/client"
	"oms/internal/promtext"
	"oms/internal/service"
	"oms/internal/store"
	"oms/internal/wal"
	"oms/internal/wire"
)

// testNode is one in-process cluster member: stores, Node, manager, and
// an HTTP server on a stable loopback address so the member can be
// killed and restarted on the same URL.
type testNode struct {
	id       string
	url      string
	dir      string
	node     *Node
	mgr      *service.Manager
	srv      *http.Server
	store    *wal.Store
	replicas *wal.Store
	reg      *promtext.Registry
}

type testCluster struct {
	t     *testing.T
	peers map[string]string
	nodes map[string]*testNode
	logs  map[string]*safeLog
	cfg   Config // template: AckMode, AckTimeout, probe tuning
}

// safeLog guards t.Logf against stray handler goroutines that outlive
// srv.Close (which does not wait for in-flight replication streams).
type safeLog struct {
	mu  sync.Mutex
	t   *testing.T
	off bool
}

func (l *safeLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.off {
		l.t.Logf(format, args...)
	}
}

func (l *safeLog) silence() {
	l.mu.Lock()
	l.off = true
	l.mu.Unlock()
}

func startCluster(t *testing.T, ids []string, tmpl Config) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, peers: map[string]string{}, nodes: map[string]*testNode{}, logs: map[string]*safeLog{}, cfg: tmpl}
	lns := map[string]net.Listener{}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[id] = ln
		tc.peers[id] = "http://" + ln.Addr().String()
	}
	for _, id := range ids {
		tc.startNode(id, t.TempDir(), lns[id])
	}
	t.Cleanup(func() {
		for _, sl := range tc.logs {
			sl.silence()
		}
		for _, tn := range tc.nodes {
			tc.stopNode(tn.id)
		}
	})
	return tc
}

// startNode boots one member over dir; ln may be nil to rebind the
// member's previous address (restart).
func (tc *testCluster) startNode(id, dir string, ln net.Listener) *testNode {
	tc.t.Helper()
	if ln == nil {
		var err error
		for i := 0; i < 50; i++ {
			ln, err = net.Listen("tcp", tc.peers[id][len("http://"):])
			if err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			tc.t.Fatalf("rebind %s: %v", id, err)
		}
	}
	store, err := wal.Open(filepath.Join(dir, "primary"), wal.Options{SyncInterval: time.Millisecond})
	if err != nil {
		tc.t.Fatal(err)
	}
	replicas, err := wal.Open(filepath.Join(dir, "replica"), wal.Options{SyncInterval: time.Millisecond})
	if err != nil {
		tc.t.Fatal(err)
	}
	reg := promtext.NewRegistry()
	cfg := tc.cfg
	cfg.Self = id
	cfg.Peers = tc.peers
	cfg.Store = store
	cfg.Replicas = replicas
	cfg.Registry = reg
	sl := &safeLog{t: tc.t}
	tc.logs[id] = sl
	cfg.Logf = sl.logf
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	if cfg.FailThreshold == 0 {
		cfg.FailThreshold = 2
	}
	node, err := NewNode(cfg)
	if err != nil {
		tc.t.Fatal(err)
	}
	mgr := service.NewManager(service.Config{
		Store:         node,
		Cluster:       node,
		Replica:       node,
		Registry:      reg,
		JanitorPeriod: time.Hour,
	})
	node.Bind(mgr)
	if _, err := mgr.RecoverSessions(); err != nil {
		tc.t.Logf("recover on %s: %v", id, err)
	}
	mgr.SetReady()
	srv := &http.Server{Handler: service.NewServer(mgr)}
	go srv.Serve(ln)
	tn := &testNode{id: id, url: tc.peers[id], dir: dir, node: node, mgr: mgr, srv: srv, store: store, replicas: replicas, reg: reg}
	tc.nodes[id] = tn
	return tn
}

// stopNode kills one member abruptly (listener down, node and manager
// closed) but leaves its directories for a restart.
func (tc *testCluster) stopNode(id string) string {
	tn := tc.nodes[id]
	if tn == nil {
		return ""
	}
	delete(tc.nodes, id)
	tc.logs[id].silence()
	tn.srv.Close()
	tn.node.Close()
	tn.mgr.Close()
	return tn.dir
}

func (tc *testCluster) ownerOf(id string) *testNode {
	for _, tn := range tc.nodes {
		return tc.nodes[tn.node.ring.Load().Owner(id)]
	}
	return nil
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func pushN(t *testing.T, cl *client.Client, id string, lo, hi int) []client.Assignment {
	t.Helper()
	nodes := make([]client.Node, 0, hi-lo)
	for u := lo; u < hi; u++ {
		adj := []int32{}
		if u > 0 {
			adj = append(adj, int32(u-1))
		}
		nodes = append(nodes, client.Node{U: int32(u), Adj: adj})
	}
	as, err := cl.Push(context.Background(), id, nodes)
	if err != nil {
		t.Fatalf("push [%d,%d): %v", lo, hi, err)
	}
	return as
}

func readLog(t *testing.T, st *wal.Store, id string) []byte {
	t.Helper()
	b, err := os.ReadFile(st.LogPath(id))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplicationShipsByteIdentical: a session created on its owner is
// shipped to the ring successor, and after seal the replica's log file
// is byte-for-byte the owner's.
func TestReplicationShipsByteIdentical(t *testing.T) {
	tc := startCluster(t, []string{"n1", "n2", "n3"}, Config{AckMode: "sync", AckTimeout: 5 * time.Second})
	n1 := tc.nodes["n1"]

	created, err := client.New(n1.url).Create(context.Background(), client.Spec{N: 64, M: 63, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	id := created.ID
	owner := tc.ownerOf(id)
	follower := tc.nodes[owner.node.ring.Load().Successor(id)]
	cl := client.New(owner.url)
	pushN(t, cl, id, 0, 64)
	if _, err := cl.Finish(context.Background(), id); err != nil {
		t.Fatal(err)
	}

	var want []byte
	waitFor(t, 5*time.Second, "replica to match owner log", func() bool {
		want = readLog(t, owner.store, id)
		got, err := os.ReadFile(follower.replicas.LogPath(id))
		return err == nil && string(got) == string(want)
	})
	if owner.reg.Snapshot()["oms_repl_ship_bytes_total"] < int64(len(want)) {
		t.Errorf("ship-bytes counter below log size")
	}

	// GC propagation: deleting the session reaps the replica too.
	if err := cl.Delete(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "replica GC", func() bool {
		_, err := os.Stat(follower.replicas.LogPath(id))
		return os.IsNotExist(err)
	})
}

// TestFailoverPromotesFollower: kill a session's owner; the follower
// must detect the death, promote the shipped log through recovery, and
// serve resumed pushes with the assignment sequence continuing from the
// exact resume point.
func TestFailoverPromotesFollower(t *testing.T) {
	tc := startCluster(t, []string{"n1", "n2", "n3"}, Config{AckMode: "sync", AckTimeout: 5 * time.Second})
	n1 := tc.nodes["n1"]

	created, err := client.New(n1.url).Create(context.Background(), client.Spec{N: 200, M: 199, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	id := created.ID
	owner := tc.ownerOf(id)
	follower := tc.nodes[owner.node.ring.Load().Successor(id)]
	first := pushN(t, client.New(owner.url), id, 0, 100)

	tc.stopNode(owner.id)

	// The follower promotes once the probes declare the owner dead.
	waitFor(t, 10*time.Second, "promotion", func() bool {
		_, err := follower.mgr.Get(id)
		return err == nil
	})
	st, err := client.New(follower.url).Status(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Assigned != int32(len(first)) {
		t.Fatalf("promoted session resumed at %d, want %d", st.Assigned, len(first))
	}
	rest := pushN(t, client.New(follower.url), id, 100, 200)
	if len(first)+len(rest) != 200 {
		t.Fatalf("assignments: %d + %d != 200", len(first), len(rest))
	}
	// The promoted node must not redirect the session away even though
	// the dead owner may re-enter the ring later: local presence wins.
	if _, err := follower.mgr.Get(id); err != nil {
		t.Fatalf("promoted session not locally owned: %v", err)
	}
}

// TestFailedPromotionLeavesNoShipper: a promotion the manager rejects
// must leave no replication shipper behind, so the lag gauge counts only
// sessions this node serves. The shipped session declares an n above
// this node's node cap, rejected before its replay, or above its
// aggregate node budget, rejected after it.
func TestFailedPromotionLeavesNoShipper(t *testing.T) {
	dir := t.TempDir()
	primary, err := wal.Open(filepath.Join(dir, "primary"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replicas, err := wal.Open(filepath.Join(dir, "replica"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A peer address nothing listens on: the shipper never connects.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	node, err := NewNode(Config{Self: "n1", Peers: map[string]string{"n1": dead, "n2": dead}, Store: primary, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	for _, c := range []struct {
		id  string
		cfg service.Config
	}{
		{"s1-0000dea1", service.Config{MaxNodes: 100}},
		{"s2-0000dea2", service.Config{MaxTotalNodes: 500}},
	} {
		lg, err := replicas.Create(c.id, store.CreateSpec{N: 1000, M: 1, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.AppendNodeFrame(wire.AppendNodeFrame(nil, 0, 1, []int32{1}, nil)); err != nil {
			t.Fatal(err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		c.cfg.Store, c.cfg.JanitorPeriod = node, time.Hour
		mgr := service.NewManager(c.cfg)
		err = node.promoteOne(mgr, c.id)
		mgr.Close()
		if err == nil {
			t.Fatalf("%s: promotion over the manager's limits succeeded", c.id)
		}
		node.mu.Lock()
		_, shipping := node.shippers[c.id]
		node.mu.Unlock()
		if shipping || node.lagBytes() != 0 {
			t.Fatalf("%s: rejected promotion left a shipper (%v) and %d lag bytes", c.id, shipping, node.lagBytes())
		}
	}
}

// TestRejectedRestartLeavesNoShipper holds a restart to the promotion's
// rule (TestFailedPromotionLeavesNoShipper): a clustered manager that
// rejects a recovered session after its replay, here at register under
// the aggregate node budget, leaves no replication shipper for it.
func TestRejectedRestartLeavesNoShipper(t *testing.T) {
	const id = "s3-0000dea3"
	dir := t.TempDir()
	primary, err := wal.Open(filepath.Join(dir, "primary"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replicas, err := wal.Open(filepath.Join(dir, "replica"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lg, err := primary.Create(id, store.CreateSpec{N: 1000, M: 1, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	nd := store.PushNode{U: 0, W: 1, Adj: []int32{1}, Frame: wire.AppendNodeFrame(nil, 0, 1, []int32{1}, nil)}
	if err := lg.AppendBatch([]store.PushNode{nd}, []int32{0}); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	node, err := NewNode(Config{Self: "n1", Peers: map[string]string{"n1": dead, "n2": dead}, Store: primary, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	mgr := service.NewManager(service.Config{Store: node, Cluster: node, MaxTotalNodes: 500, JanitorPeriod: time.Hour})
	defer mgr.Close()
	node.Bind(mgr)
	if n, err := mgr.RecoverSessions(); n != 0 || err == nil {
		t.Fatalf("restart over the aggregate node budget recovered %d sessions (err %v), want 0 and an error", n, err)
	}
	node.mu.Lock()
	_, shipping := node.shippers[id]
	node.mu.Unlock()
	if shipping || node.lagBytes() != 0 {
		t.Fatalf("rejected restart left a shipper (%v) and %d lag bytes", shipping, node.lagBytes())
	}
}
