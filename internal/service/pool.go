package service

import "sync/atomic"

// Pool bounds how many session jobs run at once. A job runs on the
// goroutine that submitted it (the request's own): it first takes its
// session's turn, then one of the pool's slots. slots is a counting
// channel, and a channel queues its blocked senders in arrival order, so
// jobs waiting for a slot start first-come first-served across sessions.
type Pool struct {
	slots chan struct{}
	// quit is closed by Close: a job still waiting for a turn or a slot
	// fails instead of starting.
	quit chan struct{}
	// backlog counts jobs waiting for a turn or a slot; runqueue those
	// among them that hold their session's turn and wait for a slot (the
	// omsd_queue_backlog and omsd_pool_runqueue gauges). A job that finds
	// both free at once is never counted.
	backlog  atomic.Int64
	runqueue atomic.Int64
}

// NewPool returns a pool that runs at most workers jobs at a time.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{slots: make(chan struct{}, workers), quit: make(chan struct{})}
}

// Close refuses new jobs and waits for the running ones to finish: it
// takes every slot and never gives them back. Call it once.
func (p *Pool) Close() {
	close(p.quit)
	for range cap(p.slots) {
		p.slots <- struct{}{}
	}
}
