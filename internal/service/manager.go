package service

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"oms/internal/promtext"
	"oms/internal/store"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"oms"
	"oms/internal/refine"
	"oms/internal/telemetry"
	"oms/internal/trace"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrNotFound reports a session id the server has never seen (404):
	// a typo or another server's id — retrying cannot help.
	ErrNotFound = errors.New("service: no such session")
	// ErrGone reports a session that existed but is dead (410): deleted,
	// TTL-evicted, or killed by a durability fault. Clients should stop
	// retrying the id.
	ErrGone  = errors.New("service: session gone")
	ErrLimit = errors.New("service: session limit reached")
	// ErrDurability wraps WAL append/flush/seal failures: a server-side
	// fault (500), after which the affected session is dead.
	ErrDurability = errors.New("service: session durability failure")
	// ErrNotFinished reports a refinement request against a session that
	// has not sealed its stream yet (409).
	ErrNotFinished = errors.New("service: session not finished")
	// ErrNoRefine reports a refine-status request for a session that was
	// never refined (404).
	ErrNoRefine = errors.New("service: session has no refinement job")
	// ErrNoStream reports a refinement request the server cannot serve
	// because the session's stream was never retained: no durable log
	// (-data-dir) and no record:true buffer (409).
	ErrNoStream = errors.New("service: session stream not retained (refinement needs -data-dir or record:true)")
	// ErrNoTrace reports a trace id the recorder does not hold (404):
	// never sampled, or already overwritten in the ring.
	ErrNoTrace = errors.New("service: no such trace")
)

func errGone(id string) error {
	return fmt.Errorf("%w: %s (deleted, evicted, or killed by a fault)", ErrGone, id)
}

func errNotFound(id string) error {
	return fmt.Errorf("%w: %s", ErrNotFound, id)
}

// Config sizes the serving subsystem. The zero value selects the
// defaults noted per field.
type Config struct {
	MaxSessions int           // concurrent session cap; default 1024
	SessionTTL  time.Duration // idle-eviction TTL; default 5m
	// MaxSessionTTL caps a client's ttl_seconds override so sessions
	// cannot opt out of eviction and pin the node budget; default 1h.
	MaxSessionTTL time.Duration
	Workers       int // session jobs running at once; default GOMAXPROCS
	// MaxNodes caps the declared n of one session; default 1<<26. The
	// per-session arrays are sized by the client's declared n before any
	// node arrives, so an uncapped n would let a single create request
	// allocate arbitrary memory.
	MaxNodes int32
	// MaxTotalNodes caps the sum of declared n over all live sessions
	// (the aggregate engine-memory budget); default 1<<28.
	MaxTotalNodes int64
	JanitorPeriod time.Duration // eviction scan period; default 1s
	// Now injects a clock for tests; default time.Now.
	Now func() time.Time
	// Store persists sessions across restarts (nil = in-memory only):
	// accepted pushes are logged before they are acknowledged, Finish
	// seals the log, deletion and TTL eviction garbage-collect it, and
	// RecoverSessions rebuilds every stored session after a restart.
	Store store.Store
	// RefineWorkers sizes the background refinement pool: how many
	// finished sessions may restream concurrently; default 1. Refinement
	// runs strictly off the ingest hot path — its workers only ever
	// touch private engine replicas and published versions.
	RefineWorkers int
	// RefinePasses is the pass count a refine request without an
	// explicit "passes" gets; default 1.
	RefinePasses int
	// Registry receives the manager's metrics; nil creates a fresh one.
	// Injecting a registry lets the daemon register process-level
	// gauges and wire the WAL store's latency observers onto the same
	// registry before the manager exists.
	Registry *promtext.Registry
	// Events receives structured session-lifecycle events (created,
	// recovered, sealed, evicted, refined, faulted); nil disables them.
	Events *telemetry.Logger
	// Tracer records request-scoped span trees; nil disables tracing
	// (every per-request trace handle is then nil, the no-op path).
	Tracer *trace.Recorder
	// Cluster provides node identity and session placement when omsd
	// runs in cluster mode; nil means single-node (no routing, no
	// redirects, /v1/cluster reports disabled).
	Cluster ClusterView
	// Replica handles the internal replication-stream routes
	// (/v1/replica/sessions/{id}); nil answers them cluster_disabled.
	// Injected rather than implemented here because the replica sink is
	// cluster machinery layered above this package.
	Replica http.Handler
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.MaxSessionTTL <= 0 {
		c.MaxSessionTTL = time.Hour
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 26
	}
	if c.MaxTotalNodes <= 0 {
		c.MaxTotalNodes = 1 << 28
	}
	if c.JanitorPeriod <= 0 {
		c.JanitorPeriod = time.Second
	}
	if c.RefineWorkers <= 0 {
		c.RefineWorkers = 1
	}
	if c.RefinePasses <= 0 {
		c.RefinePasses = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// sessionShards sizes the manager's sharded session index. A power of
// two so the hash maps to a shard with a mask.
const sessionShards = 32

// sessionShard is one stripe of the live-session index.
type sessionShard struct {
	mu sync.RWMutex
	m  map[string]*Session
}

// Manager owns the live sessions: creation against a session cap,
// lookup, deletion, and TTL eviction of idle sessions via a janitor
// goroutine. It also owns the job pool and the counter registry.
//
// The session index is sharded: Get — the hot path every ingest,
// status, and finish request takes — locks only the id's stripe (read
// lock at that), so lookup traffic from many concurrent sessions no
// longer serializes on one manager-wide mutex. Admission accounting
// (session count, aggregate node budget, id sequence) stays under mu.
// Lock discipline: mu and shard locks are never held together except
// in register (mu, then shard) — no path acquires mu while holding a
// shard lock, so that order cannot deadlock.
type Manager struct {
	cfg     Config
	reg     *promtext.Registry
	m       *serviceMetrics
	ev      *telemetry.Logger
	tracer  *trace.Recorder
	pool    *Pool
	refiner *refine.Runner

	// ready gates /v1/readyz: false until the owner declares startup
	// complete (omsd flips it after WAL recovery, so load balancers do
	// not route traffic at a daemon still replaying logs).
	ready atomic.Bool

	shards [sessionShards]sessionShard

	mu        sync.Mutex
	nSessions int   // live sessions across all shards
	liveNodes int64 // sum of charged node footprints over live sessions
	seq       uint64
	// tombs remembers recently dead session ids (deleted or evicted) so
	// the HTTP layer can answer 410 Gone instead of 404 — a client that
	// keeps retrying a dead id learns to stop. Bounded by a FIFO ring;
	// ids older than the ring's capacity degrade to 404, which is merely
	// the less informative answer.
	tombs    map[string]struct{}
	tombRing []string
	tombNext int

	closeOnce   sync.Once
	janitorQuit chan struct{}
	janitorDone chan struct{}
}

// tombstoneCap bounds the dead-id memory (a few MiB of ids at worst).
const tombstoneCap = 65536

// addTombstone records a dead session id; callers hold mg.mu.
func (mg *Manager) addTombstone(id string) {
	if mg.tombs == nil {
		mg.tombs = make(map[string]struct{})
	}
	if _, ok := mg.tombs[id]; ok {
		return
	}
	if len(mg.tombRing) < tombstoneCap {
		mg.tombRing = append(mg.tombRing, id)
	} else {
		delete(mg.tombs, mg.tombRing[mg.tombNext])
		mg.tombRing[mg.tombNext] = id
		mg.tombNext = (mg.tombNext + 1) % tombstoneCap
	}
	mg.tombs[id] = struct{}{}
}

// tombstoned reports whether id belongs to a known-dead session.
func (mg *Manager) tombstoned(id string) bool {
	mg.mu.Lock()
	_, ok := mg.tombs[id]
	mg.mu.Unlock()
	return ok
}

// shardFor maps a session id to its index stripe (FNV-1a).
func (mg *Manager) shardFor(id string) *sessionShard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &mg.shards[h&(sessionShards-1)]
}

// eachSession snapshots the live sessions stripe by stripe.
func (mg *Manager) eachSession(fn func(*Session)) {
	for i := range mg.shards {
		sh := &mg.shards[i]
		sh.mu.RLock()
		for _, s := range sh.m {
			fn(s)
		}
		sh.mu.RUnlock()
	}
}

// NewManager starts the subsystem: the job pool and the eviction
// janitor. Close releases both.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = promtext.NewRegistry()
	}
	mgr := &Manager{
		cfg:         cfg,
		reg:         reg,
		m:           newServiceMetrics(reg),
		ev:          cfg.Events,
		tracer:      cfg.Tracer,
		pool:        NewPool(cfg.Workers),
		tombs:       make(map[string]struct{}),
		janitorQuit: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	mgr.refiner = refine.NewRunner(cfg.RefineWorkers, func(st refine.Status) {
		mgr.m.refineActive.Add(-1)
		switch st.State {
		case refine.StateFailed.String():
			mgr.m.refineFailed.Inc()
		case refine.StateCanceled.String():
			mgr.m.refineCanceled.Inc()
		}
		// The submitting request's trace id joins refine_done events
		// back to their trigger.
		fields := map[string]any{"session": st.ID, "state": st.State}
		if st.TraceID != "" {
			fields["trace_id"] = st.TraceID
		}
		mgr.ev.Emit(telemetry.EventRefineDone, fields)
	})
	for i := range mgr.shards {
		mgr.shards[i].m = make(map[string]*Session)
	}
	// Backlog visibility, counted only by jobs that actually wait.
	reg.GaugeFunc("omsd_queue_backlog", "ingest/finish jobs waiting for their session's turn or a pool slot", mgr.pool.backlog.Load)
	reg.GaugeFunc("omsd_pool_runqueue", "ingest/finish jobs holding their session's turn and waiting for a pool slot", mgr.pool.runqueue.Load)
	go mgr.janitor()
	return mgr
}

// SetReady declares startup complete: /v1/readyz starts answering 200.
// omsd calls it after WAL recovery; a manager never marked ready keeps
// reporting 503 (traffic should not be routed to it).
func (mg *Manager) SetReady() { mg.ready.Store(true) }

// Ready reports whether the manager has been marked ready.
func (mg *Manager) Ready() bool { return mg.ready.Load() }

// Registry exposes the counter registry (the /metrics endpoint).
func (mg *Manager) Registry() *promtext.Registry { return mg.reg }

// Tracer exposes the span recorder (nil when tracing is disabled; every
// trace API is nil-safe).
func (mg *Manager) Tracer() *trace.Recorder { return mg.tracer }

// Pool exposes the pool that bounds how many session jobs run at once.
func (mg *Manager) Pool() *Pool { return mg.pool }

// Close stops the janitor and the pool: a job still waiting for its
// session's turn or a slot fails with ErrGone, and Close returns once the
// running ones have finished. In-flight HTTP requests should be drained
// first (http.Server.Shutdown does this in omsd). Close is idempotent.
func (mg *Manager) Close() { mg.closeOnce.Do(mg.close) }

func (mg *Manager) close() {
	close(mg.janitorQuit)
	<-mg.janitorDone
	// Stop refinement before the logs close: running jobs end at their
	// next pass boundary, queued ones never start. Published versions
	// are already durable; unpublished passes are simply lost (a restart
	// may re-request them).
	mg.refiner.Close()
	var victims []*Session
	mg.eachSession(func(s *Session) {
		s.closed.Store(true) // reject new jobs before the pool closes
		victims = append(victims, s)
	})
	mg.pool.Close()
	for _, s := range victims {
		// Shutdown is not deletion: sync and release the log, keep the
		// files — the next process recovers these sessions.
		s.closeLog()
	}
}

// admit checks the admission caps; callers hold mg.mu.
func (mg *Manager) admit(n int64) error {
	if mg.nSessions >= mg.cfg.MaxSessions {
		return fmt.Errorf("%w (%d live)", ErrLimit, mg.cfg.MaxSessions)
	}
	if mg.liveNodes+n > mg.cfg.MaxTotalNodes {
		return fmt.Errorf("%w: declared n %d would exceed the server's aggregate node budget %d (%d committed)",
			ErrLimit, n, mg.cfg.MaxTotalNodes, mg.liveNodes)
	}
	return nil
}

// reserveNodes charges delta nodes of adaptive growth against the
// aggregate budget, rejecting the growth when the budget is exhausted.
// Adaptive sessions declare no n, so their footprint is accounted live:
// each ingest job reserves the coverage it is about to add before the
// engine grows, and releases whatever a rejection did not consume.
func (mg *Manager) reserveNodes(delta int64) error {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	if mg.liveNodes+delta > mg.cfg.MaxTotalNodes {
		return fmt.Errorf("%w: adaptive growth of %d nodes would exceed the server's aggregate node budget %d (%d committed)",
			ErrLimit, delta, mg.cfg.MaxTotalNodes, mg.liveNodes)
	}
	mg.liveNodes += delta
	return nil
}

// releaseNodes returns charged-but-unused budget.
func (mg *Manager) releaseNodes(delta int64) {
	if delta <= 0 {
		return
	}
	mg.mu.Lock()
	mg.liveNodes -= delta
	mg.mu.Unlock()
}

// engineConfig turns a normalized spec into the engine config,
// applying the server-side adaptive policy: node ids are capped by the
// server's per-session cap, and persisted adaptive sessions default to
// the optimistic retained headroom — their finish runs a reconcile
// pass over the write-ahead log, so streaming-time optimism costs no
// final balance. Create and recovery both go through here, so a
// recovered session re-adapts exactly like the live one did.
func (mg *Manager) engineConfig(spec store.CreateSpec) (oms.SessionConfig, error) {
	cfg, err := spec.SessionConfig()
	if err != nil {
		return cfg, err
	}
	if cfg.Adaptive {
		cfg.AdaptiveMaxN = mg.cfg.MaxNodes
		if cfg.AdaptiveHeadroom == 0 && mg.cfg.Store != nil && !cfg.Record {
			cfg.AdaptiveHeadroom = oms.RetainedAdaptiveHeadroom
		}
	}
	return cfg, nil
}

// Create opens a session from the wire spec.
func (mg *Manager) Create(spec store.CreateSpec) (*Session, error) {
	if spec.N > mg.cfg.MaxNodes {
		return nil, fmt.Errorf("service: declared n %d exceeds the server's node cap %d", spec.N, mg.cfg.MaxNodes)
	}
	// n: 0 means open-ended — the stream's stats are estimated online.
	// Normalize before the spec is used or persisted, so recovery sees
	// the same decision.
	if spec.N == 0 {
		spec.Adaptive = true
	}
	// Cheap pre-check before building the n-sized engine; the insert
	// below re-checks under the same lock, so the caps still hold.
	mg.mu.Lock()
	err := mg.admit(int64(spec.N))
	mg.mu.Unlock()
	if err != nil {
		return nil, err
	}
	cfg, err := mg.engineConfig(spec)
	if err != nil {
		return nil, err
	}
	eng, err := oms.NewSession(cfg)
	if err != nil {
		return nil, err
	}

	mg.mu.Lock()
	mg.seq++
	id := fmt.Sprintf("s%d-%08x", mg.seq, randTag())
	if cv := mg.cfg.Cluster; cv != nil {
		// Rejection-sample the random tag until the ring places the id
		// on this node, so every session is born on its owner and
		// routing stays a pure function of the id. Expected tries ≈ the
		// node count; the cap only matters on pathological rings, where
		// a non-owned id still works and merely routes through 307s.
		for try := 0; try < 64 && !cv.OwnsID(id); try++ {
			id = fmt.Sprintf("s%d-%08x", mg.seq, randTag())
		}
	}
	mg.mu.Unlock()

	// Attach the durable log before the session becomes visible, so no
	// ingest can ever be acknowledged without reaching it.
	var lg store.SessionLog
	if mg.cfg.Store != nil {
		if lg, err = mg.cfg.Store.Create(id, spec); err != nil {
			return nil, fmt.Errorf("service: persist session: %w", err)
		}
	}
	s := mg.newSession(id, spec, eng, lg)
	if err := mg.register(s); err != nil {
		mg.dropPersisted(s)
		return nil, err
	}
	mg.m.sessionsCreated.Inc()
	if spec.Adaptive {
		mg.m.adaptiveSessions.Inc()
	}
	fields := map[string]any{
		"session": s.ID, "k": s.K(), "n": spec.N, "adaptive": spec.Adaptive,
	}
	if spec.TraceID != "" {
		fields["trace_id"] = spec.TraceID
	}
	mg.ev.Emit(telemetry.EventSessionCreated, fields)
	return s, nil
}

// newSession wires a session around its engine and log (nil without a
// store): the manager's metrics, clock, store and node budget. Its
// initial charge against the budget is the declared n or, for an
// adaptive engine that already grew past it (a recovered one), its
// coverage — the footprint exists the moment the engine does.
func (mg *Manager) newSession(id string, spec store.CreateSpec, eng *oms.Session, lg store.SessionLog) *Session {
	now := mg.cfg.Now()
	s := &Session{
		ID:      id,
		Created: now,
		eng:     eng,
		spec:    spec,
		turn:    make(chan struct{}, 1),
		log:     lg,
		store:   mg.cfg.Store,
		ledger:  refine.NewLedger(id, lg),
		nodeCap: mg.cfg.MaxNodes,
		reserve: mg.reserveNodes,
		release: mg.releaseNodes,
		m:       mg.m,
		ev:      mg.ev,
		now:     mg.cfg.Now,
	}
	charge := int64(spec.N)
	if c := int64(eng.Coverage()); eng.Adaptive() && c > charge {
		charge = c
	}
	s.charged.Store(charge)
	s.touch(now)
	return s
}

// register makes a built session visible under its id, charging its
// footprint against the admission caps; it changes nothing when a cap
// is reached or the id is taken.
func (mg *Manager) register(s *Session) error {
	charge := s.charged.Load()
	mg.mu.Lock()
	defer mg.mu.Unlock()
	if err := mg.admit(charge); err != nil {
		return err
	}
	sh := mg.shardFor(s.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, exists := sh.m[s.ID]; exists {
		return fmt.Errorf("duplicate session id")
	}
	sh.m[s.ID] = s
	mg.nSessions++
	mg.liveNodes += charge
	mg.m.sessionsActive.Inc()
	return nil
}

// dropPersisted releases and garbage-collects a session's durable
// state, if any.
func (mg *Manager) dropPersisted(s *Session) {
	s.closeLog()
	if mg.cfg.Store != nil {
		_ = mg.cfg.Store.Remove(s.ID)
	}
}

// RecoverSessions rebuilds every session the configured store holds:
// sealed sessions get their original result back (replay, then the
// stored Finish), unsealed sessions resume at the exact next node — the
// whole log is replayed, each node into the block it was acknowledged
// in, so resumed assignments are bit-identical to an uninterrupted run.
// Replay is linear in the logged nodes. Call it once, after NewManager
// and before serving. It returns how many sessions came back; the error
// joins per-session recovery failures and is advisory when the count is
// nonzero.
func (mg *Manager) RecoverSessions() (int, error) {
	if mg.cfg.Store == nil {
		return 0, nil
	}
	recs, rerr := mg.cfg.Store.Recover()
	var errs []error
	if rerr != nil {
		errs = append(errs, rerr)
	}
	n := 0
	for _, rec := range recs {
		if err := mg.restoreSession(rec); err != nil {
			errs = append(errs, fmt.Errorf("service: recover session %s: %w", rec.ID, err))
			continue
		}
		n++
	}
	return n, errors.Join(errs...)
}

// restoreSession replays one recovered session into a live engine and
// registers it under its original id. It owns the log the replay hands
// back and closes it on any later failure; a session rejected before or
// during replay leaves its log untouched.
func (mg *Manager) restoreSession(rec store.RecoveredSession) (err error) {
	if rec.Spec.N > mg.cfg.MaxNodes {
		return fmt.Errorf("declared n %d exceeds the server's node cap %d", rec.Spec.N, mg.cfg.MaxNodes)
	}
	cfg, err := mg.engineConfig(rec.Spec)
	if err != nil {
		return err
	}
	eng, err := oms.NewSession(cfg)
	if err != nil {
		return err
	}
	lg, sealed, err := rec.Replay(func(u, w int32, adj, ew []int32, block int32) error {
		// Every ingest record carries the assignment acknowledged at
		// ingest time, and replaying that decision keeps recovery
		// independent of the engine version. Only the per-node records
		// of logs written before /nodes logged its blocks (block -1)
		// re-derive it.
		if block >= 0 {
			_, err := eng.PushAssigned(u, w, adj, ew, block)
			return err
		}
		_, err := eng.Push(u, w, adj, ew)
		return err
	}, func(st oms.EstimatorState) error {
		// Stats-revision records pin the adaptive estimator trajectory:
		// applying them resynchronizes recovery with the exact
		// projections the live session served, even across estimator-
		// logic changes.
		return eng.ApplyEstimator(st)
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	defer func() {
		if err != nil {
			_ = lg.Close()
		}
	}()
	s := mg.newSession(rec.ID, rec.Spec, eng, lg)
	// Resume the stats-revision log where the replayed trajectory ends.
	s.lastStatsRev = eng.StatsRevision()
	if sealed {
		if err := s.seal(false, ""); err != nil {
			return err
		}
		// Refined versions survived on their own durability (whole-file
		// CRC; torn ones were dropped by the store) — the session keeps
		// its best completed version across the crash.
		s.ledger.Restore(rec.Versions)
	}

	if err := mg.register(s); err != nil {
		return err
	}
	// Keep new ids unique: never reuse a recovered session's sequence
	// number.
	var seq uint64
	if _, err := fmt.Sscanf(rec.ID, "s%d-", &seq); err == nil {
		mg.mu.Lock()
		mg.seq = max(mg.seq, seq)
		mg.mu.Unlock()
	}

	mg.m.sessionsRecovered.Inc()
	mg.ev.Emit(telemetry.EventSessionRecovered, map[string]any{
		"session": s.ID, "assigned": eng.Assigned(), "sealed": sealed,
	})
	return nil
}

// Get returns the live session with the given id and refreshes its TTL.
// A session closed by a WAL fault is gone, not merely erroring: its TTL
// is not refreshed (a retrying client must not pin it against eviction)
// and lookups fail like any other dead session.
func (mg *Manager) Get(id string) (*Session, error) {
	sh := mg.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.m[id]
	sh.mu.RUnlock()
	if ok && !s.closed.Load() {
		s.touch(mg.cfg.Now())
		return s, nil
	}
	// Distinguish "never existed" (404 — give up on the id) from "was
	// here, now dead" (410 — stop retrying): a closed-but-not-yet-
	// collected session and a tombstoned id are both Gone.
	if ok || mg.tombstoned(id) {
		return nil, errGone(id)
	}
	return nil, errNotFound(id)
}

// Delete closes and removes a session. Removal from the shard decides
// the winner between racing deletes; the accounting follows under mu
// (the locks are taken one after the other, never nested).
func (mg *Manager) Delete(id string) error {
	sh := mg.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	if !ok {
		if mg.tombstoned(id) {
			return errGone(id)
		}
		return errNotFound(id)
	}
	mg.retire(s, false)
	return nil
}

// retire is the tail of a removal whose caller took the session out of
// its shard: close it before the charge swap (the charged-nodes
// protocol: an in-flight ingest job that charged concurrently re-checks
// closed and releases its own addition, so the budget is returned
// exactly once however the race lands), return its budget, tombstone its
// id, cancel its refinement, garbage-collect its durable state (sealed
// or not — deletion and eviction both mean the client is done with the
// stream), then count and report the removal.
func (mg *Manager) retire(s *Session, evicted bool) {
	s.closed.Store(true)
	mg.mu.Lock()
	mg.nSessions--
	mg.liveNodes -= s.charged.Swap(0)
	mg.addTombstone(s.ID)
	mg.mu.Unlock()
	mg.refiner.Drop(s.ID)
	mg.dropPersisted(s)
	mg.m.sessionsActive.Add(-1)
	now := mg.cfg.Now()
	if evicted {
		mg.m.sessionsEvicted.Inc()
		mg.ev.Emit(telemetry.EventSessionEvicted, map[string]any{
			"session": s.ID, "idle_ms": now.Sub(s.idleSince()).Milliseconds(),
		})
		return
	}
	mg.m.sessionsDeleted.Inc()
	mg.ev.Emit(telemetry.EventSessionDeleted, map[string]any{
		"session": s.ID, "lifetime_ms": now.Sub(s.Created).Milliseconds(),
	})
}

// SessionInfo is one row of the session listing.
type SessionInfo struct {
	ID       string `json:"id"`
	K        int32  `json:"k"`
	N        int32  `json:"n"`
	Adaptive bool   `json:"adaptive,omitempty"`
	Assigned int32  `json:"assigned"`
	Finished bool   `json:"finished"`
	IdleMS   int64  `json:"idle_ms"`
}

// List snapshots the live sessions (operational endpoint; Assigned is
// read racily and may trail in-flight ingest).
func (mg *Manager) List() []SessionInfo {
	now := mg.cfg.Now()
	var out []SessionInfo
	mg.eachSession(func(s *Session) {
		out = append(out, SessionInfo{
			ID:       s.ID,
			K:        s.K(),
			N:        s.spec.N,
			Adaptive: s.spec.Adaptive,
			Assigned: s.eng.Assigned(),
			Finished: s.Finished(),
			IdleMS:   now.Sub(s.idleSince()).Milliseconds(),
		})
	})
	return out
}

// ttlOf returns a session's effective TTL: the client override, clamped
// so no session can opt out of eviction entirely.
func (mg *Manager) ttlOf(s *Session) time.Duration {
	if s.spec.TTLSeconds > 0 {
		ttl := time.Duration(s.spec.TTLSeconds) * time.Second
		if ttl > mg.cfg.MaxSessionTTL {
			ttl = mg.cfg.MaxSessionTTL
		}
		return ttl
	}
	return mg.cfg.SessionTTL
}

// EvictIdle removes every session idle beyond its TTL and returns how
// many were evicted. The janitor calls this on a ticker; tests call it
// directly with an advanced clock.
func (mg *Manager) EvictIdle() int {
	now := mg.cfg.Now()
	var victims []*Session
	for i := range mg.shards {
		sh := &mg.shards[i]
		sh.mu.Lock()
		for id, s := range sh.m {
			if now.Sub(s.idleSince()) <= mg.ttlOf(s) {
				continue
			}
			// A session whose refinement job is still queued or running
			// is not idle — evicting it would destroy the result (and
			// its versions) the server is actively computing. Published
			// passes also refresh the TTL, so the clock restarts once
			// the job ends.
			if mg.refiner.Active(id) {
				continue
			}
			delete(sh.m, id)
			victims = append(victims, s)
		}
		sh.mu.Unlock()
	}
	for _, s := range victims {
		mg.retire(s, true)
	}
	return len(victims)
}

// maxRefinePasses caps one refinement request's pass count: each pass
// is a full O(m) stream replay, so an uncapped request could park a
// refine worker for hours.
const maxRefinePasses = 64

// RefineSpec is the POST .../refine body: how many restream passes to
// run; zero takes the server default (-refine-passes). Passes are
// sequential, so a "threads" key is accepted and ignored.
type RefineSpec struct {
	Passes int `json:"passes,omitempty"`
	// TraceCtx is the submitting request's trace context, set by the
	// HTTP layer (never parsed from the body). A sampled submit makes
	// the background job record its passes as a second span tree under
	// the same trace id, merged by GET /v1/traces/{id}.
	TraceCtx trace.Context `json:"-"`
}

// RefineInfo is the refine status payload: the job snapshot plus the
// published-version ledger.
type RefineInfo struct {
	refine.Status
	OnePassCut  *int64               `json:"one_pass_edge_cut,omitempty"`
	BestVersion int32                `json:"best_version"`
	Versions    []refine.VersionInfo `json:"versions"`
}

// Refine submits a background refinement job for a finished session:
// replay its recorded stream (the durable log, or the in-memory record
// buffer without a store) through spec.Passes retract-and-reassign
// passes, publishing each completed pass as a new immutable result
// version. The call returns immediately with the queued job's status;
// at most one job per session is active at a time.
func (mg *Manager) Refine(id string, spec RefineSpec) (RefineInfo, error) {
	s, err := mg.Get(id)
	if err != nil {
		return RefineInfo{}, err
	}
	if !s.Finished() {
		return RefineInfo{}, fmt.Errorf("%w: %s (finish the stream before refining it)", ErrNotFinished, id)
	}
	passes := spec.Passes
	if passes <= 0 {
		passes = mg.cfg.RefinePasses
	}
	if passes > maxRefinePasses {
		passes = maxRefinePasses
	}

	src, err := s.stream()
	switch {
	case errors.Is(err, ErrNoStream):
		return RefineInfo{}, err
	case err != nil:
		// A log the store cannot read back is a server-side fault (500),
		// not a malformed request.
		return RefineInfo{}, fmt.Errorf("%w: open replay of session %s: %w", ErrDurability, id, err)
	}

	// engineConfig, not the bare spec: the replica must carry the same
	// adaptive policy (node-id ceiling, retained headroom) as the live
	// engine, or continuation jobs reject ids the session accepted.
	cfg, err := mg.engineConfig(s.spec)
	if err != nil {
		return RefineInfo{}, err
	}
	// The finished result is immutable, so reading it needs no session
	// job.
	onePass := s.result.Parts

	// A sampled submit opens a second trace record under the request's
	// id: the root "refine" span covers queue wait plus all passes (it
	// starts now, at submission), and each published pass becomes a
	// child span. Unsampled submits get the nil no-op handle.
	ta := mg.tracer.Start(spec.TraceCtx, true, "refine", time.Now())
	var passStart time.Time
	runInner := func(ctx context.Context, pass func(int)) error {
		passStart = time.Now() // queue wait ends; pass spans start here
		// Measure the starting point once per job, so "best" can
		// compare refined versions against the one-pass result even
		// for sessions that never recorded. It is persisted as the
		// parts-free version 0 before any refined version exists, so
		// "best" keeps comparing against it after a crash.
		if s.ledger.Baseline() == nil {
			cut0, err := refine.EdgeCut(src, onePass)
			if err != nil {
				return err
			}
			if err := s.ledger.Add(store.RefinedVersion{Version: 0, EdgeCut: cut0}); err != nil {
				s.m.walErrors.Inc()
				return err
			}
		}
		// Refinement ratchets: a second job (or one resumed after a
		// crash) seeds from the newest published version rather than
		// from the one-pass result. Either way the replica's tree
		// loads are rebuilt with one replay of the stream, since a
		// version stores only the assignment. Pass numbers stay
		// cumulative across jobs for the same reason: the ledger
		// reads as one trajectory of restream depth.
		seed := onePass
		basePass := int32(0)
		if n := s.ledger.Latest(); n > 0 {
			latest, err := s.ledger.Get(n)
			if err != nil {
				return err
			}
			seed, basePass = latest.Parts, latest.Pass
		}
		return refine.Restream(ctx, cfg, src, seed, passes, func(pr refine.PassResult) error {
			if s.closed.Load() {
				// The session died under the job (delete, eviction,
				// fault): that ends the job as canceled, not failed —
				// nothing went wrong with the refinement itself.
				return fmt.Errorf("%w: session %s gone", context.Canceled, id)
			}
			// Durable before visible: a version a client can read
			// must survive a crash (no store keeps them in memory
			// only, like everything else without -data-dir).
			if err := s.ledger.Add(store.RefinedVersion{
				Version: s.ledger.Latest() + 1,
				Pass:    basePass + int32(pr.Pass),
				EdgeCut: pr.EdgeCut,
				Parts:   pr.Parts,
			}); err != nil {
				s.m.walErrors.Inc()
				return err
			}
			// A published pass is server activity on the session:
			// refresh the TTL so a long refinement (or a client that
			// stopped polling) does not lose the session under the
			// janitor while work is still landing.
			s.touch(s.now())
			s.m.refineVersions.Inc()
			s.m.refinePasses.Inc()
			pass(pr.Pass)
			if ta != nil {
				now := time.Now()
				ta.Span("refine.pass", ta.Root(), passStart, now.Sub(passStart))
				passStart = now
			}
			return nil
		})
	}
	job := refine.Job{
		ID:      id,
		Passes:  passes,
		TraceID: ta.TraceIDString(),
		Run: func(ctx context.Context, pass func(int)) error {
			err := runInner(ctx, pass)
			if ta != nil {
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				ta.Finish(0, msg)
			}
			return err
		},
	}
	// The active gauge rises before Submit: a fast job (or a racing
	// Close) may fire the done hook — which decrements — before
	// Submit even returns, and the gauge must never dip below zero.
	mg.m.refineActive.Inc()
	st, err := mg.refiner.Submit(job)
	if err != nil {
		mg.m.refineActive.Add(-1)
		return RefineInfo{}, err
	}
	mg.m.refineJobs.Inc()
	return mg.refineInfo(s, st), nil
}

// RefineStatus reports the session's latest refinement job and version
// ledger. ok is false when the session was never refined.
func (mg *Manager) RefineStatus(id string) (RefineInfo, bool, error) {
	s, err := mg.Get(id)
	if err != nil {
		return RefineInfo{}, false, err
	}
	st, ok := mg.refiner.Status(id)
	if !ok {
		vs := s.ledger.List()
		if len(vs) == 0 {
			return RefineInfo{}, false, nil
		}
		// Versions recovered from the store outlive their job record:
		// synthesize a done status whose pass counts agree with the
		// ledger (the newest version's cumulative pass depth).
		depth := int(vs[len(vs)-1].Pass)
		st = refine.Status{ID: id, State: "done", Passes: depth, PassesDone: depth}
	}
	return mg.refineInfo(s, st), true, nil
}

func (mg *Manager) refineInfo(s *Session, st refine.Status) RefineInfo {
	return RefineInfo{
		Status:      st,
		OnePassCut:  s.ledger.Baseline(),
		BestVersion: s.ledger.Best(),
		Versions:    s.ledger.List(),
	}
}

func (mg *Manager) janitor() {
	defer close(mg.janitorDone)
	t := time.NewTicker(mg.cfg.JanitorPeriod)
	defer t.Stop()
	for {
		select {
		case <-mg.janitorQuit:
			return
		case <-t.C:
			mg.EvictIdle()
		}
	}
}

func randTag() uint32 {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0
	}
	return binary.BigEndian.Uint32(b[:])
}
