// Package load is the open-loop production load harness for omsd: a
// fixed arrival schedule (intended-start timestamps, so coordinated
// omission cannot hide server stalls) drives a weighted mix of traffic
// classes — NDJSON push streams, /batch group pushes, binary wire-v2
// ingest (wire / wirebatch), adaptive (open-ended) sessions, refine
// kicks, and status/result reads — over a
// churning population of live sessions whose adjacency is generated
// deterministically from a seed. Per-class latency lands in the same
// lock-free promtext.Histogram the daemon uses, and a run emits
// samples.csv + summary.json in the omsstat shape, evaluated against
// slo thresholds.
package load

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"oms/internal/slo"
)

// Profile is one declared workload (profiles/*.env): the arrival
// schedule, the traffic mix, the session shape, and the SLO bounds.
type Profile struct {
	Name string // basename of the file, for reports

	// Open-loop arrival schedule: RPS arrivals per second everywhere,
	// except inside burst windows (BurstLen long, starting every
	// BurstEvery) where the rate is BurstRPS. BurstRPS 0 disables
	// bursts.
	Duration   time.Duration
	RPS        float64
	BurstRPS   float64
	BurstEvery time.Duration
	BurstLen   time.Duration

	// Session churn: the driver keeps about Sessions live streams, each
	// a deterministic LocalAttach graph of SessionNodes nodes pushed
	// ChunkNodes at a time, partitioned into K blocks; finished
	// sessions linger for result reads until churned out by deletes.
	Sessions     int
	SessionNodes int32
	ChunkNodes   int32
	Degree       int
	Window       int32
	K            int32
	Record       bool

	// Mix weights per schedulable class (lifecycle classes create,
	// finish, and delete are driven by session state and recorded under
	// their own names).
	Mix map[Class]int

	Seed           uint64
	MaxInflight    int
	SampleEvery    time.Duration
	RequestTimeout time.Duration
	Drain          time.Duration

	// TraceEvery injects a sampled W3C traceparent on every Nth
	// scheduled arrival, forcing the server to record that request's
	// span tree regardless of its own head-sampling rate. 0 disables
	// injection (requests still get traced at the server's rate).
	TraceEvery int

	// Thresholds bound the client-side histograms (push_p99_ms<5
	// grammar over class aliases). StatThresholds is carried for the
	// operator's convenience: the server-side bounds a concurrent
	// omsstat run should enforce; omsload itself ignores it.
	Thresholds     []slo.Threshold
	StatThresholds string
}

// DefaultProfile is the base every profile file overrides.
func DefaultProfile() Profile {
	return Profile{
		Name:         "default",
		Duration:     60 * time.Second,
		RPS:          20,
		BurstRPS:     0,
		BurstEvery:   15 * time.Second,
		BurstLen:     3 * time.Second,
		Sessions:     8,
		SessionNodes: 1024,
		ChunkNodes:   128,
		Degree:       4,
		Window:       256,
		K:            8,
		Record:       true,
		Mix: map[Class]int{
			ClassPush:      30,
			ClassBatch:     15,
			ClassWire:      10,
			ClassWireBatch: 5,
			ClassAdaptive:  15,
			ClassStatus:    10,
			ClassResult:    5,
			ClassRefine:    10,
		},
		Seed:           1,
		MaxInflight:    256,
		SampleEvery:    time.Second,
		RequestTimeout: 10 * time.Second,
		Drain:          5 * time.Second,
		TraceEvery:     64,
	}
}

// ParseProfile reads a KEY=VALUE env-style profile file over the
// defaults. Unknown keys are errors: a typoed knob silently running the
// default would invalidate the measurement.
func ParseProfile(path string) (Profile, error) {
	p := DefaultProfile()
	f, err := os.Open(path)
	if err != nil {
		return p, err
	}
	defer f.Close()
	base := strings.TrimSuffix(strings.TrimSuffix(path[strings.LastIndex(path, "/")+1:], ".env"), ".profile")
	p.Name = base

	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" || strings.HasPrefix(raw, "#") {
			continue
		}
		key, val, ok := strings.Cut(raw, "=")
		if !ok {
			return p, fmt.Errorf("%s:%d: %q is not KEY=VALUE", path, line, raw)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if err := p.set(key, val); err != nil {
			return p, fmt.Errorf("%s:%d: %w", path, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return p, err
	}
	return p, p.Validate()
}

// set applies one profile assignment.
func (p *Profile) set(key, val string) error {
	dur := func(dst *time.Duration) error {
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		*dst = d
		return nil
	}
	f64 := func(dst *float64) error {
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		*dst = v
		return nil
	}
	i64 := func() (int64, error) {
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", key, err)
		}
		return v, nil
	}
	switch key {
	case "DURATION":
		return dur(&p.Duration)
	case "RPS":
		return f64(&p.RPS)
	case "BURST_RPS":
		return f64(&p.BurstRPS)
	case "BURST_EVERY":
		return dur(&p.BurstEvery)
	case "BURST_LEN":
		return dur(&p.BurstLen)
	case "SESSIONS":
		v, err := i64()
		p.Sessions = int(v)
		return err
	case "SESSION_NODES":
		v, err := i64()
		p.SessionNodes = int32(v)
		return err
	case "CHUNK_NODES":
		v, err := i64()
		p.ChunkNodes = int32(v)
		return err
	case "DEGREE":
		v, err := i64()
		p.Degree = int(v)
		return err
	case "WINDOW":
		v, err := i64()
		p.Window = int32(v)
		return err
	case "K":
		v, err := i64()
		p.K = int32(v)
		return err
	case "RECORD":
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		p.Record = b
		return nil
	case "MIX":
		mix, err := parseMix(val)
		if err != nil {
			return err
		}
		p.Mix = mix
		return nil
	case "SEED":
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		p.Seed = v
		return nil
	case "MAX_INFLIGHT":
		v, err := i64()
		p.MaxInflight = int(v)
		return err
	case "SAMPLE_EVERY":
		return dur(&p.SampleEvery)
	case "TRACE_EVERY":
		v, err := i64()
		p.TraceEvery = int(v)
		return err
	case "REQUEST_TIMEOUT":
		return dur(&p.RequestTimeout)
	case "DRAIN":
		return dur(&p.Drain)
	case "THRESHOLDS":
		ths, err := slo.ParseThresholds(val)
		if err != nil {
			return err
		}
		p.Thresholds = ths
		return nil
	case "STAT_THRESHOLDS":
		p.StatThresholds = val
		return nil
	}
	return fmt.Errorf("unknown profile key %q", key)
}

// parseMix parses "push:40,batch:20,..." into weights over the
// schedulable classes.
func parseMix(s string) (map[Class]int, error) {
	mix := map[Class]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not class:weight", part)
		}
		c := Class(strings.TrimSpace(name))
		if !schedulable[c] {
			return nil, fmt.Errorf("mix entry %q: unknown or lifecycle class (schedulable: push, batch, wire, wirebatch, adaptive, refine, status, result)", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(wstr))
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix entry %q: bad weight", part)
		}
		mix[c] = w
	}
	return mix, nil
}

// Validate rejects schedules and session shapes the driver cannot run.
func (p *Profile) Validate() error {
	switch {
	case p.Duration <= 0:
		return fmt.Errorf("profile %s: DURATION must be positive", p.Name)
	case p.RPS <= 0:
		return fmt.Errorf("profile %s: RPS must be positive", p.Name)
	case p.BurstRPS < 0:
		return fmt.Errorf("profile %s: BURST_RPS must be >= 0", p.Name)
	case p.BurstRPS > 0 && (p.BurstEvery <= 0 || p.BurstLen <= 0 || p.BurstLen > p.BurstEvery):
		return fmt.Errorf("profile %s: bursts need 0 < BURST_LEN <= BURST_EVERY", p.Name)
	case p.Sessions < 1:
		return fmt.Errorf("profile %s: SESSIONS must be >= 1", p.Name)
	case p.SessionNodes < 2 || p.ChunkNodes < 1:
		return fmt.Errorf("profile %s: need SESSION_NODES >= 2 and CHUNK_NODES >= 1", p.Name)
	case p.K < 2:
		return fmt.Errorf("profile %s: K must be >= 2", p.Name)
	case p.MaxInflight < 1:
		return fmt.Errorf("profile %s: MAX_INFLIGHT must be >= 1", p.Name)
	case p.SampleEvery <= 0 || p.RequestTimeout <= 0:
		return fmt.Errorf("profile %s: SAMPLE_EVERY and REQUEST_TIMEOUT must be positive", p.Name)
	case p.TraceEvery < 0:
		return fmt.Errorf("profile %s: TRACE_EVERY must be >= 0", p.Name)
	}
	total := 0
	for c, w := range p.Mix {
		if !schedulable[c] {
			return fmt.Errorf("profile %s: class %q is not schedulable", p.Name, c)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("profile %s: MIX has no positive weights", p.Name)
	}
	return nil
}
