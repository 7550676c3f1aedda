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
// The package splits in two: Runner is a bounded worker pool with a
// per-session job state machine (queued → running → done | failed |
// canceled), and Restream is the pass driver that rebuilds an engine
// by replaying a seed assignment over the session's stream and
// publishes one version per completed pass. The service layer glues them to sessions, logs,
// and the HTTP surface.
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

// Hooks observe job lifecycle transitions (the service wires counters
// in). All hooks are optional and called outside the runner lock.
type Hooks struct {
	Started  func(id string)
	Finished func(id string, final State)
	Pass     func(id string, pass int)
}

// Runner executes refinement jobs on a bounded worker pool, FIFO, at
// most one active job per session id. The last job per id stays
// queryable after it ends (until Drop), so clients can poll a finished
// job's outcome.
type Runner struct {
	hooks Hooks

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*task
	jobs   map[string]*task // latest job per session id
	closed bool
	wg     sync.WaitGroup
}

// NewRunner starts a runner with the given number of workers (minimum
// one).
func NewRunner(workers int, hooks Hooks) *Runner {
	if workers < 1 {
		workers = 1
	}
	r := &Runner{jobs: make(map[string]*task), hooks: hooks}
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go r.worker()
	}
	return r
}

// Submit enqueues a job. A session with a queued or running job rejects
// a second one; a session whose previous job ended may submit again (the
// new job replaces the old record).
func (r *Runner) Submit(j Job) (Status, error) {
	if j.Run == nil || j.ID == "" {
		return Status{}, fmt.Errorf("refine: incomplete job")
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &task{job: j, state: StateQueued, ctx: ctx, cancel: cancel}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		cancel()
		return Status{}, ErrClosed
	}
	if prev, ok := r.jobs[j.ID]; ok && !prev.state.Terminal() {
		st := prev.status()
		r.mu.Unlock()
		cancel()
		return st, fmt.Errorf("%w: session %s", ErrActive, j.ID)
	}
	r.jobs[j.ID] = t
	r.queue = append(r.queue, t)
	st := t.status()
	r.cond.Signal()
	r.mu.Unlock()
	return st, nil
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
	t, ok := r.jobs[id]
	if !ok || t.state.Terminal() {
		r.mu.Unlock()
		return false
	}
	wasQueued := t.state == StateQueued
	if wasQueued {
		t.state = StateCanceled
		t.err = context.Canceled
	}
	r.mu.Unlock()
	t.cancel()
	if wasQueued && r.hooks.Finished != nil {
		r.hooks.Finished(id, StateCanceled)
	}
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

// Close cancels everything and waits for the workers to exit. Queued
// jobs are canceled without running; the running ones see their context
// canceled and end at the next pass boundary.
func (r *Runner) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	var victims []*task
	var canceledQueued []string
	for _, t := range r.jobs {
		if t.state == StateQueued {
			// Mark terminal under the lock so the workers draining the
			// queue skip it — a queued job never runs after Close.
			t.state = StateCanceled
			t.err = context.Canceled
			canceledQueued = append(canceledQueued, t.job.ID)
		}
		if !t.state.Terminal() {
			victims = append(victims, t)
		}
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	for _, t := range victims {
		t.cancel()
	}
	// A queued job skipped by the workers still finished its lifecycle:
	// the hook must fire (the service keeps its active gauge and
	// shutdown-cancellation counter on it).
	for _, id := range canceledQueued {
		if r.hooks.Finished != nil {
			r.hooks.Finished(id, StateCanceled)
		}
	}
	r.wg.Wait()
}

func (r *Runner) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closed {
			r.cond.Wait()
		}
		if len(r.queue) == 0 && r.closed {
			r.mu.Unlock()
			return
		}
		t := r.queue[0]
		r.queue = r.queue[1:]
		if t.state != StateQueued {
			// Canceled while queued; already terminal.
			r.mu.Unlock()
			continue
		}
		t.state = StateRunning
		r.mu.Unlock()
		r.runTask(t)
	}
}

// runTask drives one job to a terminal state.
func (r *Runner) runTask(t *task) {
	if r.hooks.Started != nil {
		r.hooks.Started(t.job.ID)
	}
	err := t.job.Run(t.ctx, func(p int) {
		r.mu.Lock()
		t.passesDone = p
		r.mu.Unlock()
		if r.hooks.Pass != nil {
			r.hooks.Pass(t.job.ID, p)
		}
	})
	final := StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		final = StateCanceled
	default:
		final = StateFailed
	}
	r.mu.Lock()
	t.state = final
	t.err = err
	r.mu.Unlock()
	t.cancel() // release the context's resources
	if r.hooks.Finished != nil {
		r.hooks.Finished(t.job.ID, final)
	}
}
