package service

import (
	"context"
	"errors"
	"oms/internal/store"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"oms/internal/wire"
)

// fakeClock is a settable Config.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.JanitorPeriod == 0 {
		cfg.JanitorPeriod = time.Hour // tests drive eviction explicitly
	}
	mgr := NewManager(cfg)
	mgr.SetReady() // tests exercise a fully started daemon unless they say otherwise
	t.Cleanup(mgr.Close)
	return mgr
}

func pathSpec(n int32, k int32) store.CreateSpec {
	return store.CreateSpec{N: n, M: int64(n) - 1, K: k}
}

// framed gives hand-built nodes what every node reaching a session has:
// the canonical wire frame the ingest boundary validated, which is the
// node's log record. It is the one framing helper of this package's
// tests.
func framed(nodes ...store.PushNode) []store.PushNode {
	for i := range nodes {
		nd := &nodes[i]
		nd.Frame = wire.AppendNodeFrame(nil, nd.U, nd.W, nd.Adj, nd.EW)
	}
	return nodes
}

// pathNodes is an n-node path graph as push chunks.
func pathNodes(n int32) []store.PushNode {
	out := make([]store.PushNode, n)
	for u := int32(0); u < n; u++ {
		var adj []int32
		if u > 0 {
			adj = append(adj, u-1)
		}
		if u < n-1 {
			adj = append(adj, u+1)
		}
		out[u] = store.PushNode{U: u, Adj: adj}
	}
	return framed(out...)
}

func TestManagerLifecycle(t *testing.T) {
	mgr := testManager(t, Config{})
	s, err := mgr.Create(pathSpec(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := mgr.Get(s.ID)
	if err != nil || got != s {
		t.Fatalf("Get(%s) = %v, %v", s.ID, got, err)
	}

	blocks, err := s.Ingest(context.Background(), mgr.Pool(), pathNodes(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 10 {
		t.Fatalf("got %d assignments, want 10", len(blocks))
	}
	sum, err := s.Finish(context.Background(), mgr.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Assigned != 10 || sum.K != 2 {
		t.Fatalf("summary %+v", sum)
	}
	// Finish is retry-safe: a client that lost the response gets the
	// same summary back.
	again, err := s.Finish(context.Background(), mgr.Pool())
	if err != nil || again != sum {
		t.Fatalf("finish retry gave (%+v, %v), want the stored summary", again, err)
	}
	if _, err := s.Result(); err != nil {
		t.Fatal(err)
	}

	if err := mgr.Delete(s.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Get(s.ID); !errors.Is(err, ErrGone) {
		t.Fatalf("Get after Delete: %v", err)
	}
	if _, err := s.Ingest(context.Background(), mgr.Pool(), pathNodes(1)); err == nil {
		t.Fatal("ingest into deleted session accepted")
	}
}

func TestManagerSessionLimit(t *testing.T) {
	mgr := testManager(t, Config{MaxSessions: 2})
	if _, err := mgr.Create(pathSpec(4, 2)); err != nil {
		t.Fatal(err)
	}
	s2, err := mgr.Create(pathSpec(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(pathSpec(4, 2)); !errors.Is(err, ErrLimit) {
		t.Fatalf("over limit: %v", err)
	}
	if err := mgr.Delete(s2.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(pathSpec(4, 2)); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

func TestTTLEviction(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	mgr := testManager(t, Config{SessionTTL: time.Minute, Now: clock.now})
	stale, err := mgr.Create(pathSpec(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := mgr.Create(store.CreateSpec{N: 4, M: 3, K: 2, TTLSeconds: 3600})
	if err != nil {
		t.Fatal(err)
	}

	clock.advance(2 * time.Minute)
	if n := mgr.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d sessions, want 1 (only the default-TTL one)", n)
	}
	if _, err := mgr.Get(stale.ID); !errors.Is(err, ErrGone) {
		t.Fatalf("stale session still resolvable: %v", err)
	}
	if _, err := mgr.Get(fresh.ID); err != nil {
		t.Fatalf("long-TTL session evicted: %v", err)
	}

	// Get refreshes the TTL: the fresh session survives another scan
	// right before its deadline.
	clock.advance(59 * time.Minute)
	if _, err := mgr.Get(fresh.ID); err != nil {
		t.Fatal(err)
	}
	clock.advance(30 * time.Minute)
	if n := mgr.EvictIdle(); n != 0 {
		t.Fatalf("touched session evicted (%d)", n)
	}
	snap := mgr.Registry().Snapshot()
	if snap["omsd_sessions_evicted_total"] != 1 || snap["omsd_sessions_active"] != 1 {
		t.Fatalf("counters %+v", snap)
	}
}

func TestTTLOverrideClamped(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	mgr := testManager(t, Config{SessionTTL: time.Minute, MaxSessionTTL: 2 * time.Minute, Now: clock.now})
	s, err := mgr.Create(store.CreateSpec{N: 4, M: 3, K: 2, TTLSeconds: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	clock.advance(3 * time.Minute)
	if n := mgr.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d, want 1 (override must clamp to MaxSessionTTL)", n)
	}
	if _, err := mgr.Get(s.ID); !errors.Is(err, ErrGone) {
		t.Fatalf("immortal session survived: %v", err)
	}
}

// waitGauge polls the registry until the named gauge reads want.
func waitGauge(t *testing.T, mgr *Manager, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for mgr.Registry().Snapshot()[name] != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, mgr.Registry().Snapshot()[name], want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestBackpressureBlocksAndCounts(t *testing.T) {
	mgr := testManager(t, Config{Workers: 1})
	s, err := mgr.Create(pathSpec(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Hold the session's turn as a running job would: the next job must
	// wait for it, and gives up when its context ends.
	s.turn <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Ingest(ctx, mgr.Pool(), pathNodes(2)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ingest into a busy session: %v, want deadline exceeded", err)
	}
	if got := mgr.Registry().Snapshot()["omsd_backpressure_waits_total"]; got != 1 {
		t.Fatalf("backpressure counter %d, want 1", got)
	}
	if got := s.eng.Assigned(); got != 0 {
		t.Fatalf("the abandoned job assigned %d nodes", got)
	}
	// Release the turn; ingest flows normally again.
	<-s.turn
	blocks, err := s.Ingest(context.Background(), mgr.Pool(), pathNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("got %d assignments, want 2", len(blocks))
	}
}

// parkedInWait counts goroutines blocked in the select of Session.wait:
// a goroutine shows as parked only once its send has joined the
// channel's queue of blocked senders.
func parkedInWait() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[select") && strings.Contains(g, "service.(*Session).wait(") {
			n++
		}
	}
	return n
}

// TestJobsRunInArrivalOrder: jobs that queue behind a busy session run
// in the order they arrived, which a Record session's source shows.
func TestJobsRunInArrivalOrder(t *testing.T) {
	const jobs = 16
	mgr := testManager(t, Config{})
	spec := pathSpec(jobs, 2)
	spec.Record = true
	s, err := mgr.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	s.turn <- struct{}{}
	var want []int32
	errc := make(chan error, jobs)
	for i := int32(0); i < jobs; i++ {
		u := (7 * i) % jobs // not in id order
		want = append(want, u)
		go func() {
			_, err := s.Ingest(context.Background(), mgr.Pool(), framed(store.PushNode{U: u}))
			errc <- err
		}()
		// Start the next job only once this one is parked in the turn's
		// queue (the backlog gauge counts a job just before it joins).
		for deadline := time.Now().Add(5 * time.Second); parkedInWait() != int(i+1); {
			if time.Now().After(deadline) {
				t.Fatalf("job %d never parked waiting for the turn", i)
			}
			runtime.Gosched()
		}
	}
	waitGauge(t, mgr, "omsd_queue_backlog", jobs)
	<-s.turn
	for range jobs {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	var got []int32
	_ = s.eng.Source().ForEach(func(u, _ int32, _, _ []int32) { got = append(got, u) })
	if !slices.Equal(got, want) {
		t.Fatalf("session ingested %v, want arrival order %v", got, want)
	}
}

// TestPoolBoundsRunningJobs: with one slot, a job parked inside its
// session's log makes another session's job wait for the slot, counted
// in the run queue until the parked job finishes.
func TestPoolBoundsRunningJobs(t *testing.T) {
	pl := &parkLog{parked: make(chan struct{}, 2), release: make(chan struct{})}
	mgr := testManager(t, Config{Workers: 1, Store: &faultStore{log: pl}})
	ctx := context.Background()
	a, err := mgr.Create(pathSpec(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.Create(pathSpec(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 2)
	go func() {
		_, err := a.Ingest(ctx, mgr.Pool(), pathNodes(8))
		errc <- err
	}()
	<-pl.parked // a's job holds the only slot
	go func() {
		_, err := b.Ingest(ctx, mgr.Pool(), pathNodes(8))
		errc <- err
	}()
	waitGauge(t, mgr, "omsd_pool_runqueue", 1)
	snap := mgr.Registry().Snapshot()
	if snap["omsd_pool_runqueue"] != 1 || snap["omsd_queue_backlog"] != 1 || b.eng.Assigned() != 0 {
		t.Fatalf("runqueue %d, backlog %d, b assigned %d while a holds the slot; want 1, 1, 0",
			snap["omsd_pool_runqueue"], snap["omsd_queue_backlog"], b.eng.Assigned())
	}
	close(pl.release)
	for range 2 {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if got := mgr.Registry().Snapshot()["omsd_pool_runqueue"]; got != 0 || b.eng.Assigned() != 8 {
		t.Fatalf("after release: runqueue %d, b assigned %d; want 0 and 8", got, b.eng.Assigned())
	}
}

func TestAggregateNodeBudget(t *testing.T) {
	mgr := testManager(t, Config{MaxNodes: 1000, MaxTotalNodes: 1500})
	a, err := mgr.Create(pathSpec(1000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(pathSpec(600, 2)); !errors.Is(err, ErrLimit) {
		t.Fatalf("over aggregate budget: %v", err)
	}
	if err := mgr.Delete(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(pathSpec(600, 2)); err != nil {
		t.Fatalf("budget not released on delete: %v", err)
	}
}

func TestNodeCapRejectsHugeDeclarations(t *testing.T) {
	mgr := testManager(t, Config{MaxNodes: 1000})
	if _, err := mgr.Create(pathSpec(1001, 2)); err == nil {
		t.Fatal("over-cap n accepted")
	}
	if _, err := mgr.Create(pathSpec(1000, 2)); err != nil {
		t.Fatalf("at-cap n rejected: %v", err)
	}
}

// TestChurnDoesNotWedgePool: a single slot busy with one session's
// jobs while clients delete the session and create replacements must
// not wedge the pool.
func TestChurnDoesNotWedgePool(t *testing.T) {
	mgr := testManager(t, Config{Workers: 1, MaxSessions: 1})
	for round := 0; round < 50; round++ {
		s, err := mgr.Create(pathSpec(64, 2))
		if err != nil {
			t.Fatal(err)
		}
		// Several jobs queue on the session while it churns.
		var wg sync.WaitGroup
		for c := 0; c < 12; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				u := int32(c)
				// Errors are fine (duplicate pushes after delete races);
				// the property under test is that nothing wedges.
				_, _ = s.Ingest(context.Background(), mgr.Pool(), framed(store.PushNode{U: u}))
			}(c)
		}
		wg.Wait()
		if err := mgr.Delete(s.ID); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCloseFailsOutQueuedJobs(t *testing.T) {
	mgr := testManager(t, Config{Workers: 1})
	s, err := mgr.Create(pathSpec(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Hold the session's turn, then strand a job waiting for it.
	s.turn <- struct{}{}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Ingest(context.Background(), mgr.Pool(), pathNodes(2))
		errc <- err
	}()
	waitGauge(t, mgr, "omsd_queue_backlog", 1)
	mgr.Close() // idempotent; testManager's cleanup closes again
	select {
	case err := <-errc:
		if !errors.Is(err, ErrGone) {
			t.Fatalf("stranded job failed with %v, want ErrGone", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stranded job never failed out")
	}
}

func TestCreateSpecValidation(t *testing.T) {
	mgr := testManager(t, Config{})
	bad := []store.CreateSpec{
		{N: 0, K: 0},                                 // no target (adaptive or not)
		{N: 4, K: 0},                                 // no target
		{N: 4, K: 2, Topology: "2:2"},                // both targets
		{N: 4, K: 2, Scorer: "quantum"},              // unknown scorer
		{N: 4, Topology: "nope"},                     // unparsable topology
		{N: 4, Topology: "2:2", Distances: "1:2:3"},  // mismatched distances
		{Adaptive: true, K: 2, AdaptiveHeadroom: -1}, // negative headroom
	}
	for i, spec := range bad {
		if _, err := mgr.Create(spec); err == nil {
			t.Fatalf("spec %d accepted: %+v", i, spec)
		}
	}
	// n: 0 with a target is not an error anymore — it opens an
	// open-ended (adaptive) session.
	ad, err := mgr.Create(store.CreateSpec{N: 0, K: 2})
	if err != nil {
		t.Fatalf("n=0 spec rejected: %v", err)
	}
	if !ad.eng.Adaptive() {
		t.Fatal("n=0 session is not adaptive")
	}
	// Topology with defaulted distances works.
	s, err := mgr.Create(store.CreateSpec{N: 64, M: 128, Topology: "4:4"})
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 16 {
		t.Fatalf("topology 4:4 gives k=%d, want 16", s.K())
	}
}

// TestBatchIngestMatchesSequential: the batch job path assigns the same
// stream the chunk path does, and the batch counter moves.
func TestBatchIngestMatchesSequential(t *testing.T) {
	mgr := testManager(t, Config{})
	ctx := context.Background()

	seq, err := mgr.Create(pathSpec(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks, err := seq.Ingest(ctx, mgr.Pool(), pathNodes(64))
	if err != nil {
		t.Fatal(err)
	}

	bat, err := mgr.Create(pathSpec(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	gotBlocks, err := bat.IngestBatch(ctx, mgr.Pool(), pathNodes(64))
	if err != nil {
		t.Fatal(err)
	}
	for u := range wantBlocks {
		if gotBlocks[u] != wantBlocks[u] {
			t.Fatalf("node %d: batch %d, chunk %d", u, gotBlocks[u], wantBlocks[u])
		}
	}
	if got := mgr.Registry().Snapshot()["omsd_batches_ingested_total"]; got != 1 {
		t.Fatalf("batches counter %d, want 1", got)
	}
}

// TestBatchAtomicRejection: a batch with an invalid node applies
// nothing — the atomic admission the WAL group frame relies on.
func TestBatchAtomicRejection(t *testing.T) {
	mgr := testManager(t, Config{})
	ctx := context.Background()
	s, err := mgr.Create(pathSpec(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	bad := pathNodes(8)
	bad[5].U = 99 // out of declared range
	if _, err := s.IngestBatch(ctx, mgr.Pool(), bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if got := s.eng.Assigned(); got != 0 {
		t.Fatalf("rejected batch assigned %d nodes", got)
	}
}

// TestShardedManagerConcurrentAccess hammers create/get/list/delete
// from many goroutines; run under -race this exercises the session
// index, and the final accounting must balance.
func TestShardedManagerConcurrentAccess(t *testing.T) {
	mgr := testManager(t, Config{})
	ctx := context.Background()
	const goroutines = 8
	const perG = 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s, err := mgr.Create(pathSpec(8, 2))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := mgr.Get(s.ID); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Ingest(ctx, mgr.Pool(), pathNodes(8)); err != nil {
					t.Error(err)
					return
				}
				mgr.List()
				if g%2 == 0 {
					if err := mgr.Delete(s.ID); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	want := goroutines / 2 * perG
	if got := len(mgr.List()); got != want {
		t.Fatalf("live sessions %d, want %d", got, want)
	}
	mgr.mu.Lock()
	n, nodes := len(mgr.sessions), mgr.liveNodes
	mgr.mu.Unlock()
	if n != want || nodes != int64(want*8) {
		t.Fatalf("accounting n=%d nodes=%d, want %d and %d", n, nodes, want, want*8)
	}
}
