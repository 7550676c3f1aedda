package benchmark

import (
	"context"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"oms"
	"oms/internal/metrics"
	"oms/internal/wire"
)

// The harness must stay one process: PR 12's benchmark was rejected for
// leaving a process running.
func TestImportsStartNoProcess(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == "os/exec" || strings.HasPrefix(p, "oms/cmd/") {
				t.Errorf("%s imports %s", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// encodeStream is the byte image of a workload's inputs: every push, in
// order, as wire frames.
func encodeStream(t *testing.T, w Workload, seed uint64) []byte {
	t.Helper()
	g, err := w.generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, c := range chunks(g, w.Chunk) {
		for _, nd := range c {
			buf = wire.AppendNodeFrame(buf, nd.U, nd.W, nd.Adj, nd.EW)
		}
	}
	return buf
}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, name := range []string{"map_rmat_disk", "svc_wire_c64_mem"} {
		w, _ := Find(name)
		w = w.Toy()
		a, b, c := encodeStream(t, w, 7), encodeStream(t, w, 7), encodeStream(t, w, 8)
		if string(a) != string(b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

func TestPacerSchedule(t *testing.T) {
	p := newPacer(1000, 50*time.Millisecond)
	n := 0
	for {
		if _, ok := p.claim(context.Background()); !ok {
			break
		}
		n++
	}
	if n != 50 {
		t.Errorf("1000/s for 50 ms scheduled %d requests, want 50", n)
	}

	// One request in flight against a handler that stalls 20 ms, due
	// every 10 ms: request i is sent 10·i ms late, and measured from when
	// it was due its latency grows by 10 ms each time. Measured from when
	// it was sent, every request would read 20 ms.
	p = newPacer(100, 100*time.Millisecond)
	var lat []float64
	for {
		due, ok := p.claim(context.Background())
		if !ok {
			break
		}
		time.Sleep(20 * time.Millisecond)
		lat = append(lat, ms(time.Since(due)))
	}
	if len(lat) != 10 {
		t.Fatalf("scheduled %d requests, want 10", len(lat))
	}
	for i, l := range lat {
		if want := 20 + 10*float64(i); l < want-1 || l > want+30 {
			t.Errorf("request %d: latency %.1f ms from its due time, want about %.0f", i, l, want)
		}
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with 10 samples beyond", v, ok)
	}
	if v, ok := percentile(xs[:199], 0.95); ok || v != 189 {
		t.Errorf("p95 of 1..199 = %v, %v; want the highest supported quantile, 189, flagged", v, ok)
	}
	if v, ok := percentile(xs[:5], 0.99); ok || v != 1 {
		t.Errorf("p99 of 5 samples = %v, %v; want the lowest sample, flagged", v, ok)
	}
}

// Python: statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: "bench", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "client", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Layer: "client", StartNS: 30, EndNS: 60},  // overlaps 2
		{ID: 4, Parent: 1, Layer: "client", StartNS: 90, EndNS: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Layer: "core", StartNS: 15, EndNS: 25},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 20, 3: 30, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
	if l := layerSelfNS(spans); l["bench"] != 40 || l["client"] != 80 || l["core"] != 10 {
		t.Errorf("layer self times %v", l)
	}
}

// The harness's own arithmetic must agree with the program's metrics
// package, and must reject what it is there to reject.
func TestVerifyAgainstMetricsPackage(t *testing.T) {
	g := oms.GenRGG2D(1<<11, 3)
	top := oms.MustTopology("4:2:2", Distances)
	res, err := oms.MapGraph(g, top, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := verify(oms.NewMemorySource(g), res.Parts, res.K, res.Lmax, top)
	if err != nil {
		t.Fatal(err)
	}
	total := float64(g.TotalEdgeWeight())
	if want := float64(metrics.EdgeCut(g, res.Parts)) / total; math.Abs(q.cutFrac-want) > 1e-12 {
		t.Errorf("cut fraction %v, metrics says %v", q.cutFrac, want)
	}
	if want := metrics.MappingCost(g, res.Parts, top) / total; math.Abs(q.costPerEdge-want) > 1e-9 {
		t.Errorf("cost per edge %v, metrics says %v", q.costPerEdge, want)
	}
	if want := metrics.Imbalance(g, res.Parts, res.K) + 1; math.Abs(q.maxLoadRatio-want) > 1e-12 {
		t.Errorf("max load ratio %v, metrics says %v", q.maxLoadRatio, want)
	}
	if _, err := verify(oms.NewMemorySource(g), res.Parts, res.K, res.Lmax-1, top); err == nil {
		// Fennel fills blocks to Lmax on this graph, so a tighter bound must trip.
		t.Error("an overloaded block passed")
	}
	bad := append([]int32(nil), res.Parts...)
	bad[5] = res.K
	if _, err := verify(oms.NewMemorySource(g), bad, res.K, res.Lmax, top); err == nil {
		t.Error("a block id outside [0,k) passed")
	}
}

// settle waits for goroutines that are on their way out.
func settle(baseline int) int {
	for i := 0; i < 100 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func TestNothingLeftRunningOrListening(t *testing.T) {
	tmp := t.TempDir()
	baseline := runtime.NumGoroutine()
	w, _ := Find("svc_wire_c64_wal")
	e, err := setUp(context.Background(), w.Toy(), 1, tmp)
	if err != nil {
		t.Fatal(err)
	}
	addr := e.host.srv.Listener.Addr().String()
	rs := e.runFor(context.Background(), 50*time.Millisecond, nil, 0)
	if rs.failed > 0 || rs.units == 0 {
		t.Errorf("%d of %d operations failed, %d sessions verified: %s", rs.failed, rs.attempted, rs.units, rs.firstErr)
	}
	e.close()
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("%s still accepts connections after close", addr)
	}
	if n := settle(baseline); n > baseline {
		t.Errorf("%d goroutines after close, %d before set-up", n, baseline)
	}
	if left, _ := os.ReadDir(tmp); len(left) > 0 {
		t.Errorf("%d entries left under the temp directory, first %s", len(left), left[0].Name())
	}
}

// Every workload runs at toy scale, correct, and prints exactly the
// names BENCHMARK.json declares — end-to-end untraced, per-layer traced.
func TestToyRunsPrintTheDeclaredNames(t *testing.T) {
	spec, err := LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := func(ms []SpecMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			if !name.MatchString(m.Name) {
				t.Errorf("metric name %q is not of the permitted form", m.Name)
			}
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, layers := declared(spec.EndToEnd), declared(spec.PerLayer)
	if len(spec.Workloads) != len(Workloads) {
		t.Errorf("spec lists %d workloads, the harness has %d", len(spec.Workloads), len(Workloads))
	}
	for i, sw := range spec.Workloads {
		if i < len(Workloads) && sw.Name != Workloads[i].Name {
			t.Errorf("spec workload %d is %q, the harness has %q", i, sw.Name, Workloads[i].Name)
		}
	}
	baseline := runtime.NumGoroutine()
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.Name != "part_rgg_k4096" && w.Name != "svc_churn_ndjson_open" {
				continue // one library and one service workload cover both ladders' callers
			}
			tmp := t.TempDir()
			rep, err := Run(context.Background(), w.Toy(), Options{Seed: 5, Seconds: 0.2, Trace: traced, Tmp: tmp, Out: tmp})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.Name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
			want := e2e
			if traced {
				want = layers
				if _, err := os.Stat(filepath.Join(tmp, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
			for n, m := range rep.Metrics {
				if unit, ok := want[n]; !ok {
					t.Errorf("%s traced=%v prints %s, which BENCHMARK.json does not declare", w.Name, traced, n)
				} else if unit != m.Unit {
					t.Errorf("%s: %s printed in %q, declared in %q", w.Name, n, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.Name, n, m.Value)
				}
			}
			for n := range want {
				if _, ok := rep.Metrics[n]; !ok {
					t.Errorf("%s traced=%v does not print %s", w.Name, traced, n)
				}
			}
		}
	}
	if n := settle(baseline); n > baseline {
		t.Errorf("%d goroutines after the runs, %d before", n, baseline)
	}
}
