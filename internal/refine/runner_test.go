package refine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitState polls until the job for id reaches want or the deadline
// passes.
func waitState(t *testing.T, r *Runner, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := r.Status(id); ok && st.State == want {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := r.Status(id)
	t.Fatalf("job %s never reached %q (last: %+v)", id, want, st)
	return Status{}
}

func TestRunnerLifecycle(t *testing.T) {
	r := NewRunner(2, nil)
	defer r.Close()

	st, err := r.Submit(Job{ID: "a", Passes: 3, Run: func(ctx context.Context, pass func(int)) error {
		for p := 1; p <= 3; p++ {
			pass(p)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "queued" {
		t.Fatalf("submitted state %q, want queued", st.State)
	}
	final := waitState(t, r, "a", "done")
	if final.PassesDone != 3 || final.Error != "" {
		t.Fatalf("final status %+v", final)
	}
}

func TestRunnerRejectsSecondActiveJob(t *testing.T) {
	r := NewRunner(1, nil)
	defer r.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := r.Submit(Job{ID: "a", Passes: 1, Run: func(ctx context.Context, pass func(int)) error {
		close(started)
		<-release
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := r.Submit(Job{ID: "a", Passes: 1, Run: func(context.Context, func(int)) error { return nil }}); !errors.Is(err, ErrActive) {
		t.Fatalf("second submit: %v, want ErrActive", err)
	}
	close(release)
	waitState(t, r, "a", "done")
	// A terminal job may be replaced.
	if _, err := r.Submit(Job{ID: "a", Passes: 1, Run: func(context.Context, func(int)) error { return nil }}); err != nil {
		t.Fatalf("resubmit after done: %v", err)
	}
	waitState(t, r, "a", "done")
}

func TestRunnerFailureAndCancel(t *testing.T) {
	r := NewRunner(1, nil)
	defer r.Close()

	boom := errors.New("pass exploded")
	if _, err := r.Submit(Job{ID: "fail", Passes: 1, Run: func(context.Context, func(int)) error { return boom }}); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, r, "fail", "failed")
	if st.Error == "" {
		t.Fatal("failed job reports no error")
	}

	// Cancel a running job: its ctx fires, the job returns Canceled.
	started := make(chan struct{})
	if _, err := r.Submit(Job{ID: "run", Passes: 1, Run: func(ctx context.Context, pass func(int)) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	if !r.Cancel("run") {
		t.Fatal("cancel of running job reported no live job")
	}
	waitState(t, r, "run", "canceled")
}

func TestRunnerCancelQueuedNeverRuns(t *testing.T) {
	r := NewRunner(1, nil)
	defer r.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := r.Submit(Job{ID: "hog", Passes: 1, Run: func(ctx context.Context, pass func(int)) error {
		close(started)
		<-release
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now busy
	var ran atomic.Bool
	if _, err := r.Submit(Job{ID: "queued", Passes: 1, Run: func(context.Context, func(int)) error {
		ran.Store(true)
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	if !r.Cancel("queued") {
		t.Fatal("cancel of queued job reported no live job")
	}
	waitState(t, r, "queued", "canceled")
	close(release)
	waitState(t, r, "hog", "done")
	if ran.Load() {
		t.Fatal("canceled queued job still ran")
	}
}

func TestRunnerBoundedConcurrency(t *testing.T) {
	const workers = 2
	r := NewRunner(workers, nil)
	defer r.Close()
	var mu sync.Mutex
	running, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		id := string(rune('a' + i))
		if _, err := r.Submit(Job{ID: id, Passes: 1, Run: func(context.Context, func(int)) error {
			mu.Lock()
			running++
			if running > peak {
				peak = running
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
			wg.Done()
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if peak > workers {
		t.Fatalf("%d jobs ran concurrently, pool bounds %d", peak, workers)
	}
}

func TestRunnerHooksAndDrop(t *testing.T) {
	var finished atomic.Int64
	r := NewRunner(1, func(st Status) {
		if st.State != "done" || st.PassesDone != 2 {
			t.Errorf("done hook got %+v", st)
		}
		finished.Add(1)
	})
	defer r.Close()
	if _, err := r.Submit(Job{ID: "a", Passes: 2, Run: func(ctx context.Context, pass func(int)) error {
		pass(1)
		pass(2)
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	waitState(t, r, "a", "done")
	r.Drop("a")
	if _, ok := r.Status("a"); ok {
		t.Fatal("dropped job still queryable")
	}
	r.Close() // waits for the job's goroutine, hook included
	if got := finished.Load(); got != 1 {
		t.Fatalf("done hook fired %d times, want 1", got)
	}
}

// TestRunnerDoneGetsEndedJobStatus: the done hook reports the job that
// ended, even when a newer job for the same id was submitted before the
// hook ran.
func TestRunnerDoneGetsEndedJobStatus(t *testing.T) {
	release := make(chan struct{})
	ended := make(chan Status, 2)
	r := NewRunner(2, func(st Status) {
		if st.TraceID == "a" {
			<-release
		}
		ended <- st
	})
	defer r.Close()
	run := func(ctx context.Context, pass func(int)) error {
		pass(1)
		return nil
	}
	if _, err := r.Submit(Job{ID: "s", Passes: 1, TraceID: "a", Run: run}); err != nil {
		t.Fatal(err)
	}
	waitState(t, r, "s", "done") // A is terminal; its hook blocks
	if _, err := r.Submit(Job{ID: "s", Passes: 1, TraceID: "b", Run: run}); err != nil {
		t.Fatal(err)
	}
	if st := <-ended; st.TraceID != "b" {
		t.Fatalf("first hook to return reported %+v, want job b", st)
	}
	close(release)
	st := <-ended
	if want := (Status{ID: "s", State: "done", Passes: 1, PassesDone: 1, TraceID: "a"}); st != want {
		t.Fatalf("job a's hook got %+v, want %+v", st, want)
	}
}

func TestRunnerCloseCancelsEverything(t *testing.T) {
	var finished atomic.Int64
	r := NewRunner(1, func(Status) { finished.Add(1) })
	started := make(chan struct{})
	if _, err := r.Submit(Job{ID: "a", Passes: 1, Run: func(ctx context.Context, pass func(int)) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := r.Submit(Job{ID: "b", Passes: 1, Run: func(context.Context, func(int)) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	r.Close() // must not hang
	if _, err := r.Submit(Job{ID: "c", Passes: 1, Run: func(context.Context, func(int)) error { return nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if st, ok := r.Status("a"); !ok || st.State != "canceled" {
		t.Fatalf("running job after close: %+v", st)
	}
	if st, ok := r.Status("b"); !ok || st.State != "canceled" {
		t.Fatalf("queued job after close: %+v (must never run)", st)
	}
	// Both jobs' lifecycles ended, so the done hook fired for each —
	// the service keeps its active gauge on it.
	if got := finished.Load(); got != 2 {
		t.Fatalf("done hook fired %d times after Close, want 2", got)
	}
}
