package load

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"oms/client"
	"oms/internal/gen"
	"oms/internal/graph"
	"oms/internal/util"
)

// graphVariants is how many distinct LocalAttach adjacency templates a
// run cycles through; sessions reuse templates so create ops stay cheap
// while the server still sees varied streams.
const graphVariants = 4

// lsession is one live server session the driver churns through its
// lifecycle: streaming (push/batch chunks, either wire format),
// exhausted (next touch finishes it), finished (refine kicks and result
// reads), deleted.
type lsession struct {
	id       string
	g        *graph.Graph
	cursor   int32 // next node to push
	adaptive bool
	finished bool
	refines  int
	busy     bool // a mutating op holds the lease (guarded by Driver.mu)
}

// Driver maps scheduled traffic classes onto concrete HTTP ops over a
// churning session population, issued through the typed oms/client
// package — one client per wire format, sharing the HTTP transport.
// Scheduling state (which session an arrival touches) lives under one
// mutex and is decided in plan(); the HTTP work itself runs unlocked,
// so ops on different sessions overlap freely while two mutating ops
// never race one session.
type Driver struct {
	p      Profile
	cl     *client.Client // NDJSON/JSON surface
	clBin  *client.Client // binary wire-v2 surface
	rec    *Recorder
	graphs []*graph.Graph

	mu       sync.Mutex
	rng      *util.RNG
	sessions []*lsession // live: streaming and finished
	created  int64
	arrivals int64 // scheduled-op counter driving TraceEvery injection

	totals SessionTotals
}

// NewDriver prepares the template graphs and the scheduling state.
// With more than one target the clients run in cluster mode: requests
// route to each session's owner node and ride out failover windows.
func NewDriver(p Profile, targets []string, hc *http.Client, rec *Recorder) *Driver {
	if hc == nil {
		hc = &http.Client{}
	}
	opts := []client.Option{client.WithHTTPClient(hc)}
	if len(targets) > 1 {
		opts = append(opts, client.WithCluster(targets...))
	}
	graphs := make([]*graph.Graph, graphVariants)
	for i := range graphs {
		graphs[i] = gen.LocalAttach(p.SessionNodes, p.Degree, p.Window, p.Seed+uint64(i)*0x9e3779b97f4a7c15)
	}
	return &Driver{
		p:      p,
		cl:     client.New(targets[0], opts...),
		clBin:  client.New(targets[0], append(opts, client.WithBinary(true))...),
		rec:    rec,
		graphs: graphs,
		rng:    util.NewRNG(p.Seed ^ 0xabcdef12345),
	}
}

// Live reports the current session population (streaming + finished).
func (d *Driver) Live() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.sessions))
}

// Totals returns the session-churn ledger.
func (d *Driver) Totals() SessionTotals {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.totals
	t.Live = int64(len(d.sessions))
	return t
}

// PickClass draws one schedulable class from the profile's mix.
func (d *Driver) PickClass() Class {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0
	for _, c := range Classes {
		total += d.p.Mix[c]
	}
	n := d.rng.Intn(total)
	for _, c := range Classes {
		if w := d.p.Mix[c]; w > 0 {
			if n < w {
				return c
			}
			n -= w
		}
	}
	return ClassStatus
}

// opKind is the concrete op plan() resolved a desired class into.
type opKind int

const (
	opCreate opKind = iota
	opChunk         // push or batch one chunk of s's stream
	opFinish
	opRefine
	opStatus
	opList
	opResult
	opDelete
)

// op is one planned request.
type op struct {
	kind     opKind
	class    Class // recorded class; for opChunk it also picks route + format
	s        *lsession
	lo, hi   int32 // chunk bounds for opChunk
	adaptive bool  // for opCreate
}

// ingestClass reports whether c is an ingest-shaped arrival (it feeds a
// streaming session a chunk).
func ingestClass(c Class) bool {
	switch c {
	case ClassPush, ClassBatch, ClassWire, ClassWireBatch, ClassAdaptive:
		return true
	}
	return false
}

// plan resolves a desired class into a concrete op against current
// session state, taking leases on mutating targets. Lifecycle takes
// precedence: an oversized finished pool churns a delete, an exhausted
// stream gets finished before new chunks are scheduled onto it.
func (d *Driver) plan(desired Class) op {
	d.mu.Lock()
	defer d.mu.Unlock()

	// Housekeeping first: keep the finished pool near the live target
	// so sessions churn instead of accumulating forever.
	if s := d.pickLocked(func(s *lsession) bool { return s.finished && !s.busy }); s != nil && d.countLocked(func(s *lsession) bool { return s.finished }) > d.p.Sessions {
		s.busy = true
		return op{kind: opDelete, class: ClassDelete, s: s}
	}
	// An exhausted stream is sealed by whatever ingest-shaped arrival
	// touches it next.
	if ingestClass(desired) {
		if s := d.pickLocked(func(s *lsession) bool {
			return !s.finished && !s.busy && s.cursor >= s.g.NumNodes()
		}); s != nil {
			s.busy = true
			return op{kind: opFinish, class: ClassFinish, s: s}
		}
	}

	switch {
	case ingestClass(desired):
		wantAdaptive := desired == ClassAdaptive
		s := d.pickLocked(func(s *lsession) bool {
			return !s.finished && !s.busy && s.adaptive == wantAdaptive && s.cursor < s.g.NumNodes()
		})
		if s == nil {
			// No stream to feed: grow the population (bounded) — churn
			// under load creates sessions, which is itself traffic.
			if len(d.sessions) < 2*d.p.Sessions+2 {
				return op{kind: opCreate, class: ClassCreate, adaptive: wantAdaptive}
			}
			return d.readOpLocked()
		}
		s.busy = true
		lo := s.cursor
		hi := min(lo+d.p.ChunkNodes, s.g.NumNodes())
		// The lease covers the chunk: advance now. A failed chunk never
		// re-pushes nodes blindly (a duplicate push would corrupt
		// declared weights) — doChunk resumes from the session's
		// authoritative assigned count instead.
		s.cursor = hi
		return op{kind: opChunk, class: desired, s: s, lo: lo, hi: hi}
	case desired == ClassRefine:
		if s := d.pickLocked(func(s *lsession) bool { return s.finished && !s.busy && s.refines < 2 }); s != nil {
			s.busy = true
			s.refines++
			return op{kind: opRefine, class: ClassRefine, s: s}
		}
		return d.readOpLocked()
	case desired == ClassResult:
		if s := d.pickLocked(func(s *lsession) bool { return s.finished }); s != nil {
			return op{kind: opResult, class: ClassResult, s: s}
		}
		return d.readOpLocked()
	default: // ClassStatus
		return d.readOpLocked()
	}
}

// readOpLocked is the fallback read: a status poke at any session, or
// the session list when the population is empty.
func (d *Driver) readOpLocked() op {
	if len(d.sessions) == 0 {
		return op{kind: opList, class: ClassStatus}
	}
	return op{kind: opStatus, class: ClassStatus, s: d.sessions[d.rng.Intn(len(d.sessions))]}
}

// pickLocked returns a uniformly random session matching pred, or nil.
func (d *Driver) pickLocked(pred func(*lsession) bool) *lsession {
	n := 0
	var chosen *lsession
	for _, s := range d.sessions {
		if pred(s) {
			n++
			// Reservoir pick keeps the scan single-pass and unbiased.
			if d.rng.Intn(n) == 0 {
				chosen = s
			}
		}
	}
	return chosen
}

func (d *Driver) countLocked(pred func(*lsession) bool) int {
	n := 0
	for _, s := range d.sessions {
		if pred(s) {
			n++
		}
	}
	return n
}

// Do executes one scheduled arrival: resolve the class against session
// state, run the HTTP op, record latency from the intended start, and
// apply the state transition.
func (d *Driver) Do(ctx context.Context, desired Class, intended time.Time) {
	ctx = d.maybeTrace(ctx)
	o := d.plan(desired)
	out := d.execute(ctx, o)
	d.rec.Observe(o.class, time.Since(intended), out)
}

// maybeTrace stamps every TraceEvery-th scheduled arrival with a fresh
// sampled traceparent, so a load run always leaves a known-rate trail
// of recorded traces (and exemplars) on the server under test.
func (d *Driver) maybeTrace(ctx context.Context) context.Context {
	if d.p.TraceEvery <= 0 {
		return ctx
	}
	d.mu.Lock()
	d.arrivals++
	inject := d.arrivals%int64(d.p.TraceEvery) == 0
	d.mu.Unlock()
	if !inject {
		return ctx
	}
	tp, _ := client.NewTraceparent(true)
	return client.ContextWithTraceparent(ctx, tp)
}

// execute runs the op's HTTP request and applies its state transition.
func (d *Driver) execute(ctx context.Context, o op) Outcome {
	switch o.kind {
	case opCreate:
		return d.doCreate(ctx, o.adaptive)
	case opChunk:
		err := d.doChunk(ctx, o)
		d.unlease(o.s)
		return outcomeOf(err)
	case opFinish:
		_, err := d.cl.Finish(ctx, o.s.id)
		d.mu.Lock()
		o.s.busy = false
		if err == nil {
			o.s.finished = true
			d.totals.Finished++
		}
		d.mu.Unlock()
		return outcomeOf(err)
	case opRefine:
		err := d.cl.Refine(ctx, o.s.id, 1)
		d.unlease(o.s)
		return outcomeOf(err)
	case opStatus:
		_, err := d.cl.Status(ctx, o.s.id)
		return outcomeOf(err)
	case opList:
		_, err := d.cl.List(ctx)
		return outcomeOf(err)
	case opResult:
		_, err := d.cl.Result(ctx, o.s.id, "best")
		return outcomeOf(err)
	case opDelete:
		err := d.cl.Delete(ctx, o.s.id)
		d.mu.Lock()
		o.s.busy = false
		if err == nil {
			d.removeLocked(o.s)
			d.totals.Deleted++
		}
		d.mu.Unlock()
		return outcomeOf(err)
	}
	return OutcomeError
}

// doChunk streams nodes [lo, hi) of the session's graph through the
// route and wire format the class names, draining the assignment
// stream — latency therefore covers the full round trip.
//
// A transport break mid-stream (the chunk's node died, the connection
// reset) leaves the accepted prefix ambiguous: re-pushing the whole
// chunk would double-assign nodes, skipping it would leave a permanent
// gap. The session's assigned count is the exact resume point — the
// driver pushes u equal to stream position, contiguously — so doChunk
// resynchronizes from Status and resumes from there. A session whose
// state cannot be re-established is abandoned (stream ends where it
// is; the lifecycle finishes and churns it out).
func (d *Driver) doChunk(ctx context.Context, o op) error {
	cl := d.cl
	if o.class == ClassWire || o.class == ClassWireBatch {
		cl = d.clBin
	}
	batch := o.class == ClassBatch || o.class == ClassWireBatch
	err := d.pushRange(ctx, cl, batch, o.s, o.lo, o.hi)
	for attempt := 0; err != nil && attempt < 3; attempt++ {
		var ce *client.Error
		if errors.As(err, &ce) {
			// The server answered (a rejection, the driver racing its
			// own churn): nothing in flight to resynchronize.
			return err
		}
		st, serr := d.cl.Status(ctx, o.s.id)
		if serr != nil {
			break
		}
		a := st.Assigned
		if a >= o.hi {
			return nil // fully accepted; only the response was lost
		}
		if a < o.lo {
			break // not the contiguous stream we thought: stop feeding it
		}
		err = d.pushRange(ctx, cl, batch, o.s, a, o.hi)
	}
	if err != nil {
		d.abandon(o.s)
	}
	return err
}

// pushRange pushes nodes [lo, hi) of s's graph through cl.
func (d *Driver) pushRange(ctx context.Context, cl *client.Client, batch bool, s *lsession, lo, hi int32) error {
	nodes := make([]client.Node, 0, hi-lo)
	for u := lo; u < hi; u++ {
		nodes = append(nodes, client.Node{U: u, Adj: s.g.Neighbors(u)})
	}
	var err error
	if batch {
		_, err = cl.PushBatch(ctx, s.id, nodes)
	} else {
		_, err = cl.Push(ctx, s.id, nodes)
	}
	return err
}

// abandon ends a session's stream at its current position: its node
// stayed unreachable past every retry, so no further chunk can be
// pushed safely. The session still finishes and churns normally.
func (d *Driver) abandon(s *lsession) {
	d.mu.Lock()
	s.cursor = s.g.NumNodes()
	d.mu.Unlock()
}

func (d *Driver) unlease(s *lsession) {
	d.mu.Lock()
	s.busy = false
	d.mu.Unlock()
}

func (d *Driver) removeLocked(s *lsession) {
	for i, t := range d.sessions {
		if t == s {
			d.sessions[i] = d.sessions[len(d.sessions)-1]
			d.sessions = d.sessions[:len(d.sessions)-1]
			return
		}
	}
}

// doCreate posts a session spec and registers the new session.
func (d *Driver) doCreate(ctx context.Context, adaptive bool) Outcome {
	d.mu.Lock()
	g := d.graphs[d.created%int64(len(d.graphs))]
	d.created++
	seed := d.p.Seed + uint64(d.created)
	d.mu.Unlock()

	spec := client.Spec{
		K:      d.p.K,
		Record: d.p.Record,
		Seed:   seed,
	}
	if adaptive {
		spec.Adaptive = true
	} else {
		spec.N = g.NumNodes()
		spec.M = g.NumEdges()
		spec.TotalNodeWeight = g.TotalNodeWeight()
		spec.TotalEdgeWeight = g.TotalEdgeWeight()
	}
	created, err := d.cl.Create(ctx, spec)
	if err != nil {
		return outcomeOf(err)
	}
	if created.ID == "" {
		return OutcomeError
	}
	d.mu.Lock()
	d.sessions = append(d.sessions, &lsession{id: created.ID, g: g, adaptive: adaptive})
	d.totals.Created++
	d.mu.Unlock()
	return OutcomeOK
}

// outcomeOf classifies a completed request: transport failures and 5xx
// are hard errors, 4xx (and in-band stream rejections, which are the
// driver racing churn) are rejections, the rest are fine.
func outcomeOf(err error) Outcome {
	if err == nil {
		return OutcomeOK
	}
	var ce *client.Error
	if errors.As(err, &ce) {
		if ce.Status >= 500 {
			return OutcomeError
		}
		return OutcomeRejected
	}
	return OutcomeError
}
