// Package refine is the background restream refinement subsystem: after
// a push session finishes, its recorded stream (the durable write-ahead
// log, replayed from disk) is run through additional retract-and-
// reassign passes over the same multi-section hierarchy, and each pass's
// improved assignment is published as a new immutable result version.
// The paper's restreaming model (and the ReFennel/ReLDG line of work it
// cites) shows these passes cut the edge-cut substantially at modest
// cost; this package is the serving-side machinery that spends idle
// cores on them without ever touching the ingest hot path.
//
// The package has three parts. Runner runs jobs, one goroutine each
// behind a bounded slot channel, with a per-session job state machine
// (queued → running → done | failed | canceled). Restream is the pass
// driver that rebuilds an engine by replaying a seed assignment over
// the session's stream and publishes one version per completed pass.
// Ledger is a session's record of those versions: the one-pass
// baseline cut, the published versions, durable through the session's
// log before they are visible, and their reload once pruned from
// memory. The service layer glues them to sessions and the HTTP
// surface.
package refine

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Sentinel errors of the job state machine.
var (
	// ErrActive reports a Submit for a session that already has a queued
	// or running job; one refinement at a time per session.
	ErrActive = errors.New("refine: job already queued or running")
	// ErrClosed reports a Submit after Close.
	ErrClosed = errors.New("refine: runner closed")
)

// State is one job's position in the lifecycle.
type State int

// Job states. Terminal states are Done, Failed, and Canceled.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= StateDone }

// Job is one refinement work item. Run does the actual work: it must
// honor ctx (checked between passes) and call pass(p) after each
// completed pass so status reads can report progress.
type Job struct {
	ID     string // session id; one active job per id
	Passes int
	// TraceID is the hex trace id of the request that submitted the job,
	// empty when that request was not sampled. Carried through Status so
	// a refine job's progress can be joined back to its trigger's trace.
	TraceID string
	Run     func(ctx context.Context, pass func(int)) error
}

// Status is a point-in-time snapshot of a job, shaped for the HTTP
// status endpoint.
type Status struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Passes     int    `json:"passes"`
	PassesDone int    `json:"passes_done"`
	TraceID    string `json:"trace_id,omitempty"`
	Error      string `json:"error,omitempty"`
}

// task is one job plus its mutable lifecycle state.
type task struct {
	job        Job
	state      State
	passesDone int
	err        error
	cancel     context.CancelFunc
	ctx        context.Context
}

func (t *task) status() Status {
	st := Status{
		ID:         t.job.ID,
		State:      t.state.String(),
		Passes:     t.job.Passes,
		PassesDone: t.passesDone,
		TraceID:    t.job.TraceID,
	}
	if t.err != nil {
		st.Error = t.err.Error()
	}
	return st
}

// Runner executes refinement jobs, at most workers at a time and at most
// one active job per session id. Each Submit starts the job's own
// goroutine, which takes one of the workers slots from a counting
// channel; blocked senders queue in arrival order, so jobs start
// first-come first-served. The last job per id stays queryable after it
// ends (until Drop), so clients can poll a finished job's outcome.
type Runner struct {
	slots chan struct{}
	// done, when set, receives every job's final status exactly once,
	// on the job's goroutine (the service wires counters and the
	// refine_done event in).
	done func(Status)

	mu     sync.Mutex
	jobs   map[string]*task // latest job per session id
	closed bool
	wg     sync.WaitGroup
}

// NewRunner returns a runner that runs at most workers jobs at once
// (minimum one) and reports each job's end to done (may be nil).
func NewRunner(workers int, done func(Status)) *Runner {
	return &Runner{slots: make(chan struct{}, max(workers, 1)), done: done, jobs: make(map[string]*task)}
}

// Submit queues a job. A session with a queued or running job rejects
// a second one; a session whose previous job ended may submit again (the
// new job replaces the old record).
func (r *Runner) Submit(j Job) (Status, error) {
	if j.Run == nil || j.ID == "" {
		return Status{}, fmt.Errorf("refine: incomplete job")
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &task{job: j, state: StateQueued, ctx: ctx, cancel: cancel}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		cancel()
		return Status{}, ErrClosed
	}
	if prev, ok := r.jobs[j.ID]; ok && !prev.state.Terminal() {
		cancel()
		return prev.status(), fmt.Errorf("%w: session %s", ErrActive, j.ID)
	}
	r.jobs[j.ID] = t
	r.wg.Add(1)
	go r.run(t)
	return t.status(), nil
}

// Status returns the latest job snapshot for a session id.
func (r *Runner) Status(id string) (Status, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.jobs[id]
	if !ok {
		return Status{}, false
	}
	return t.status(), true
}

// Active reports whether id has a queued or running job (the session
// eviction path treats an actively refining session as not idle).
func (r *Runner) Active(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.jobs[id]
	return ok && !t.state.Terminal()
}

// Cancel cancels the session's job: a queued job never runs, a running
// job's context is canceled (honored between passes). Cancel of an
// ended, unknown, or already-canceled job is a no-op. It reports whether
// a live job was canceled.
func (r *Runner) Cancel(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.jobs[id]
	if !ok || t.state.Terminal() || t.ctx.Err() != nil {
		return false
	}
	// Under the lock: a queued job checks its context under the same
	// lock before it starts, so it cannot slip past this cancel.
	t.cancel()
	return true
}

// Drop cancels and forgets the session's job record entirely (session
// deletion or eviction: nothing remains to query).
func (r *Runner) Drop(id string) {
	r.Cancel(id)
	r.mu.Lock()
	delete(r.jobs, id)
	r.mu.Unlock()
}

// Close refuses new jobs, cancels every live one and waits for their
// goroutines to end: queued jobs end without running, running ones at
// their next pass boundary. Close is idempotent.
func (r *Runner) Close() {
	r.mu.Lock()
	r.closed = true
	for _, t := range r.jobs {
		t.cancel()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// run is one job's goroutine: it waits for a slot, runs the job unless
// it was canceled first, and reports the job's end.
func (r *Runner) run(t *task) {
	defer r.wg.Done()
	err := context.Canceled
	select {
	case r.slots <- struct{}{}:
		if r.start(t) {
			err = t.job.Run(t.ctx, func(p int) {
				r.mu.Lock()
				t.passesDone = p
				r.mu.Unlock()
			})
		}
		<-r.slots
	case <-t.ctx.Done():
	}
	final := StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		final = StateCanceled
	default:
		final = StateFailed
	}
	r.mu.Lock()
	t.state, t.err = final, err
	st := t.status()
	r.mu.Unlock()
	t.cancel() // release the context's resources
	if r.done != nil {
		r.done(st)
	}
}

// start moves a queued job to running, unless it was canceled while it
// waited for its slot.
func (r *Runner) start(t *task) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t.ctx.Err() != nil {
		return false
	}
	t.state = StateRunning
	return true
}
