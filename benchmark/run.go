package benchmark

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oms"
	"oms/client"
	"oms/internal/stream"
)

// runStats is what one timed region yields. Latencies are in ms.
type runStats struct {
	mu        sync.Mutex
	wall      time.Duration
	nodes     int64 // nodes assigned and acknowledged
	attempted int   // operations: passes, or requests of any kind
	failed    int   // failed, refused, timed out, or wrong answer
	firstErr  string

	passMS                       []float64 // library: one full pass
	pushMS                       []float64 // one Chunk of nodes
	createMS, finishMS, resultMS []float64
	lagMS                        []float64 // how late a request was sent after it was due
	quality                      []quality // one per verified result
	units                        int       // completed passes or sessions
}

func (rs *runStats) fail(err error) {
	rs.failed++
	if rs.firstErr == "" {
		rs.firstErr = err.Error()
	}
}

// nodesPerS is nodes assigned per second: input size over the median
// pass for the library workloads (a pass is the whole input), nodes
// acknowledged over the wall time of the region for the service ones.
func (rs *runStats) nodesPerS(n int32) float64 {
	if len(rs.passMS) > 0 {
		return float64(n) / (median(rs.passMS) / 1e3)
	}
	if rs.wall <= 0 {
		return 0
	}
	return float64(rs.nodes) / rs.wall.Seconds()
}

// chunkTimer passes a source through while timing every Chunk nodes it
// delivers: from outside the program, the latency of one span of the
// stream is the time until the visitor returns from its last node.
type chunkTimer struct {
	oms.Source
	chunk int
	tr    *Tracer
	pass  int
	lat   []float64
}

func (c *chunkTimer) ForEach(fn stream.Visitor) error {
	i, t := 0, time.Now()
	return c.Source.ForEach(func(u, vw int32, adj, ew []int32) {
		fn(u, vw, adj, ew)
		if i++; i == c.chunk {
			now := time.Now()
			c.lat = append(c.lat, ms(now.Sub(t)))
			c.tr.Add(c.pass, "core", "span", t, now, int64(i))
			i, t = 0, now
		}
	})
}

// runLibrary repeats the single streaming pass until d has elapsed.
// Each pass must reproduce the reference bit for bit.
func (e *env) runLibrary(ctx context.Context, d time.Duration, tr *Tracer, root int) *runStats {
	rs := &runStats{}
	name := "partition"
	if e.cfg.Topology != nil {
		name = "map"
	}
	start := time.Now()
	for rs.units == 0 || (time.Since(start) < d && ctx.Err() == nil) {
		src := &chunkTimer{Source: e.src, chunk: e.w.Chunk, tr: tr}
		src.pass = tr.Start(root, "oms", name)
		t0 := time.Now()
		var res *oms.Result
		var err error
		if e.cfg.Topology != nil {
			res, err = oms.Map(src, e.cfg.Topology, e.cfg.Options)
		} else {
			res, err = oms.Partition(src, e.cfg.K, e.cfg.Options)
		}
		took := time.Since(t0)
		tr.End(src.pass, int64(e.stats.N))
		rs.attempted++
		rs.units++
		switch {
		case err != nil:
			rs.fail(err)
		case !slices.Equal(res.Parts, e.ref):
			rs.fail(fmt.Errorf("pass %d differs from the reference assignment", rs.units))
		default:
			rs.nodes += int64(e.stats.N)
			rs.passMS = append(rs.passMS, ms(took))
			rs.pushMS = append(rs.pushMS, src.lat...)
		}
	}
	rs.wall = time.Since(start)
	e.verifyInto(rs, tr, root, e.ref)
	return rs
}

// verifyInto recomputes the quality of parts and records it; a result
// that fails the checks counts as a failed operation.
func (e *env) verifyInto(rs *runStats, tr *Tracer, parent int, parts []int32) {
	t0 := time.Now()
	q, err := verify(e.src, parts, e.k, e.lmax, e.top)
	tr.Add(parent, "metrics", "verify", t0, time.Now(), int64(len(parts)))
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if err != nil {
		rs.attempted++
		rs.fail(fmt.Errorf("verify: %w", err))
		return
	}
	rs.quality = append(rs.quality, q)
}

// opTimeout bounds one request; a request that exceeds it has failed.
const opTimeout = 20 * time.Second

// pacer hands out the open loop's schedule: request i is due at
// start + i/rate, whatever happened to the requests before it.
type pacer struct {
	start time.Time
	gap   time.Duration
	total int64
	next  atomic.Int64
}

func newPacer(rate float64, d time.Duration) *pacer {
	return &pacer{
		start: time.Now(),
		gap:   time.Duration(float64(time.Second) / rate),
		total: int64(rate * d.Seconds()),
	}
}

// claim returns when the next request is due, sleeping until then if
// that is in the future; ok is false once the schedule is exhausted.
func (p *pacer) claim(ctx context.Context) (due time.Time, ok bool) {
	i := p.next.Add(1) - 1
	if i >= p.total {
		return time.Time{}, false
	}
	due = p.start.Add(time.Duration(i) * p.gap)
	if wait := time.Until(due); wait > 0 {
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return due, false
		}
	}
	return due, true
}

// runService drives session lifecycles from Clients goroutines until d
// has elapsed: closed loop (each client sends its next request when the
// reply arrives) or, with Rate set, open loop (requests are due on a
// fixed schedule and latency counts from when they were due).
func (e *env) runService(ctx context.Context, d time.Duration, tr *Tracer, root int) *runStats {
	rs := &runStats{}
	var pc *pacer
	if e.w.Rate > 0 && d > 0 {
		pc = newPacer(e.w.Rate, d)
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < e.w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || (time.Now().Before(deadline) && ctx.Err() == nil); first = false {
				if !e.runSession(ctx, rs, tr, root, pc, deadline, first) {
					return
				}
			}
		}()
	}
	wg.Wait()
	rs.wall = time.Since(start)
	return rs
}

// runSession walks one session through create, every push, finish,
// result read and delete, checking each reply. A closed-loop client's
// first session always runs to the end; other sessions stop where the
// deadline (or the schedule's end) falls and are deleted unfinished. It
// reports whether the client should start another.
func (e *env) runSession(ctx context.Context, rs *runStats, tr *Tracer, root int, pc *pacer, deadline time.Time, first bool) bool {
	cl := e.host.cl
	sp := tr.Start(root, "bench", "session")
	defer func() { tr.End(sp, int64(e.stats.N)) }()
	idle := time.Now() // closed loop: the next request is due when the last reply arrived

	// op times one request from when it was due; it returns false when
	// the region has ended and the request was not sent.
	op := func(name string, lat *[]float64, count int64, do func(context.Context) error) bool {
		due := idle
		switch {
		case pc != nil:
			var ok bool
			if due, ok = pc.claim(ctx); !ok {
				return false
			}
		case !first && !time.Now().Before(deadline):
			return false
		}
		octx, cancel := context.WithTimeout(ctx, opTimeout)
		sent := time.Now()
		err := do(octx)
		end := time.Now()
		cancel()
		tr.Add(sp, "client", name, sent, end, count)
		idle = end
		rs.mu.Lock()
		defer rs.mu.Unlock()
		rs.attempted++
		rs.lagMS = append(rs.lagMS, ms(sent.Sub(due)))
		if err != nil {
			rs.fail(fmt.Errorf("%s: %w", name, err))
			return true
		}
		if lat != nil {
			*lat = append(*lat, ms(end.Sub(due)))
		}
		rs.nodes += count
		return true
	}

	var id string
	if !op("create", &rs.createMS, 0, func(ctx context.Context) error {
		cr, err := cl.Create(ctx, e.w.createSpec(e.stats, e.seed))
		if err == nil && (cr.K != e.k || cr.Lmax != e.lmax) {
			err = fmt.Errorf("created k=%d lmax=%d, reference has k=%d lmax=%d", cr.K, cr.Lmax, e.k, e.lmax)
		}
		id = cr.ID
		return err
	}) {
		return false
	}
	if id == "" {
		return ctx.Err() == nil // create failed and was counted; try a fresh session
	}
	remove := func() {
		// Deleting is housekeeping outside the schedule, but a refusal
		// still counts.
		octx, cancel := context.WithTimeout(context.WithoutCancel(ctx), opTimeout)
		defer cancel()
		t0 := time.Now()
		err := cl.Delete(octx, id)
		tr.Add(sp, "client", "delete", t0, time.Now(), 0)
		rs.mu.Lock()
		defer rs.mu.Unlock()
		rs.attempted++
		if err != nil {
			rs.fail(fmt.Errorf("delete: %w", err))
		}
	}
	defer remove()

	acked := make([]int32, e.stats.N)
	for _, chunk := range e.push {
		sent := op("push", &rs.pushMS, int64(len(chunk)), func(ctx context.Context) error {
			var as []client.Assignment
			var err error
			if e.w.Batch {
				as, err = cl.PushBatch(ctx, id, chunk)
			} else {
				as, err = cl.Push(ctx, id, chunk)
			}
			if err != nil {
				return err
			}
			if len(as) != len(chunk) {
				return fmt.Errorf("%d assignments for %d nodes", len(as), len(chunk))
			}
			for i, a := range as {
				if a.U != chunk[i].U || a.B < 0 || a.B >= e.k {
					return fmt.Errorf("node %d answered as node %d block %d", chunk[i].U, a.U, a.B)
				}
				if e.w.deterministic() && a.B != e.ref[a.U] {
					return fmt.Errorf("node %d assigned to %d, the reference says %d", a.U, a.B, e.ref[a.U])
				}
				acked[a.U] = a.B
			}
			return nil
		})
		if !sent {
			return false
		}
	}
	if !op("finish", &rs.finishMS, 0, func(ctx context.Context) error {
		sum, err := cl.Finish(ctx, id)
		if err == nil && sum.Assigned != e.stats.N {
			err = fmt.Errorf("finished with %d of %d nodes assigned", sum.Assigned, e.stats.N)
		}
		return err
	}) {
		return false
	}
	var parts []int32
	if !op("result", &rs.resultMS, 0, func(ctx context.Context) error {
		res, err := cl.Result(ctx, id, "")
		if err != nil {
			return err
		}
		// An acknowledged assignment is permanent: the result must
		// repeat every push reply (and with it, the reference).
		if !slices.Equal(res.Parts, acked) {
			return fmt.Errorf("result differs from the acknowledged assignments")
		}
		parts = res.Parts
		return nil
	}) {
		return false
	}
	if parts != nil {
		e.verifyInto(rs, tr, sp, parts)
		rs.mu.Lock()
		rs.units++
		rs.mu.Unlock()
	}
	return true
}
