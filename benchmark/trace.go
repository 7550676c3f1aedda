package benchmark

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call the harness made into a layer. Spans are
// recorded from this package's own code around the layers' public
// functions; nothing inside the program is instrumented.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: no parent
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer started
	EndNS    int64  `json:"end_ns"`
	Count    int64  `json:"count"` // units of work the call covered (nodes, requests)
}

// Tracer keeps spans in memory until the run ends. A nil Tracer records
// nothing, which is how the untraced runs call the same code.
type Tracer struct {
	mu       sync.Mutex
	workload string
	t0       time.Time
	spans    []Span
}

func newTracer(workload string) *Tracer {
	return &Tracer{workload: workload, t0: time.Now()}
}

// Add records a finished span and returns its id.
func (t *Tracer) Add(parent int, layer, name string, start, end time.Time, count int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Workload: t.workload, Layer: layer, Name: name,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)), Count: count,
	})
	return id
}

// Start opens a span whose children are recorded before it ends.
func (t *Tracer) Start(parent int, layer, name string) int {
	now := time.Now()
	return t.Add(parent, layer, name, now, now, 0)
}

// End closes a span opened with Start.
func (t *Tracer) End(id int, count int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = int64(now.Sub(t.t0))
	t.spans[id-1].Count = count
}

// Spans returns a copy of what was recorded.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// it that its children cover. Children may overlap each other (two
// clients under one root) and are clipped to the parent.
func selfTimes(spans []Span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, end int64
		end = s.StartNS
		for _, c := range ivs {
			if c.hi <= end {
				continue
			}
			covered += c.hi - max(c.lo, end)
			end = c.hi
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerSelfNS sums span self times per layer.
func layerSelfNS(spans []Span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}
