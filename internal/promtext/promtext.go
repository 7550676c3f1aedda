// Package promtext owns both ends of the Prometheus text exposition
// format (version 0.0.4, plus OpenMetrics exemplars): the Registry of
// counters, gauges and lock-free latency histograms that writes
// /metrics, and the parser that reads a scrape back into families
// keyed by metric name. Every histogram shares one bucket layout
// (BucketBounds: power-of-two nanosecond bounds from ~1µs to ~17s,
// then +Inf), so a parsed histogram family is the same
// HistogramSnapshot the registry took, with the one Quantile and the
// one Summary row. The package is dependency-free: the daemon, the
// omsstat sampler and the omsload harness all use it, and none may
// pull a client library the build does not vendor.
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Sample is one sample line: the full series name (including any
// _bucket/_sum/_count suffix), its labels, and the value. Exemplar is
// non-nil when the line carried an OpenMetrics exemplar suffix.
type Sample struct {
	Name     string
	Labels   map[string]string
	Value    float64
	Exemplar *Exemplar
}

// Exemplar is one OpenMetrics exemplar: the labels that link a bucket
// to a concrete observation (our exporter emits trace_id), the observed
// value, and an optional unix-seconds timestamp.
type Exemplar struct {
	Labels map[string]string
	Value  float64
	Ts     float64
	HasTs  bool
}

// TraceID returns the exemplar's trace_id label, or "".
func (e *Exemplar) TraceID() string {
	if e == nil {
		return ""
	}
	return e.Labels["trace_id"]
}

// Family is one metric family: the metadata from its # HELP / # TYPE
// lines plus every sample that belongs to it. Untyped samples with no
// preceding metadata form a family of their own with an empty Type.
type Family struct {
	Name    string
	Help    string
	Type    string // "counter", "gauge", "histogram", ... or ""
	Samples []Sample
}

// Parse reads an exposition document and returns its families in
// first-appearance order. Unparseable lines are errors (a scraper that
// silently skips them hides exporter bugs); empty input parses to an
// empty, valid document.
func Parse(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	byName := make(map[string]*Family)
	var order []*Family
	family := func(name string) *Family {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &Family{Name: name}
		byName[name] = f
		order = append(order, f)
		return f
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, family); err != nil {
				return nil, fmt.Errorf("promtext: line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("promtext: line %d: %w", lineNo, err)
		}
		owner := family(familyOf(s.Name, byName))
		owner.Samples = append(owner.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]Family, len(order))
	for i, f := range order {
		out[i] = *f
	}
	return out, nil
}

// familyOf resolves which family a sample belongs to: its own name when
// metadata exists for it, else the histogram/summary base name when the
// sample carries a child-series suffix and the base family is typed.
func familyOf(name string, byName map[string]*Family) string {
	if _, ok := byName[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suf)
		if !ok {
			continue
		}
		if f, ok := byName[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
			return base
		}
	}
	return name
}

// parseComment handles # HELP and # TYPE; other comments are ignored.
func parseComment(line string, family func(string) *Family) error {
	rest := strings.TrimPrefix(line, "#")
	rest = strings.TrimLeft(rest, " ")
	keyword, rest, _ := strings.Cut(rest, " ")
	switch keyword {
	case "HELP":
		name, help, ok := strings.Cut(rest, " ")
		if !ok && name == "" {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
		family(name).Help = unescapeHelp(help)
	case "TYPE":
		name, typ, ok := strings.Cut(rest, " ")
		if !ok || name == "" || typ == "" {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		family(name).Type = typ
	}
	return nil
}

// unescapeHelp reverses the exposition format's HELP escaping: \\ and
// \n are the only defined sequences.
func unescapeHelp(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// parseSample parses one sample line: name[{labels}] value [timestamp],
// optionally followed by an OpenMetrics exemplar suffix
// " # {labels} value [timestamp]". Quoted label values are consumed
// before the split, so a '#' inside a value cannot be mistaken for the
// exemplar separator.
func parseSample(line string) (Sample, error) {
	s := Sample{}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("sample line %q has no metric name", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	if before, exPart, found := strings.Cut(rest, " # "); found {
		ex, err := parseExemplar(exPart)
		if err != nil {
			return s, fmt.Errorf("sample line %q: %w", line, err)
		}
		s.Exemplar = ex
		rest = before
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample line %q has %d value fields, want value [timestamp]", line, len(fields))
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("sample line %q: bad value: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseExemplar parses the part after the exemplar separator:
// {labels} value [timestamp].
func parseExemplar(s string) (*Exemplar, error) {
	s = strings.TrimLeft(s, " \t")
	if !strings.HasPrefix(s, "{") {
		return nil, fmt.Errorf("exemplar %q does not start with a label block", s)
	}
	labels, tail, err := parseLabels(s)
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(tail)
	if len(fields) < 1 || len(fields) > 2 {
		return nil, fmt.Errorf("exemplar %q has %d value fields, want value [timestamp]", s, len(fields))
	}
	ex := &Exemplar{Labels: labels}
	if ex.Value, err = strconv.ParseFloat(fields[0], 64); err != nil {
		return nil, fmt.Errorf("exemplar %q: bad value: %w", s, err)
	}
	if len(fields) == 2 {
		if ex.Ts, err = strconv.ParseFloat(fields[1], 64); err != nil {
			return nil, fmt.Errorf("exemplar %q: bad timestamp: %w", s, err)
		}
		ex.HasTs = true
	}
	return ex, nil
}

// parseLabels parses a {k="v",...} block from the front of s and
// returns the remainder. Label values use the full escaping set:
// \\, \", and \n.
func parseLabels(s string) (map[string]string, string, error) {
	out := make(map[string]string)
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return out, s[i+1:], nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) || i == start {
			return nil, "", fmt.Errorf("malformed label block %q", s)
		}
		key := s[start:i]
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return nil, "", fmt.Errorf("label %s in %q has an unquoted value", key, s)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("unterminated label value in %q", s)
			}
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		out[key] = val.String()
	}
}

// AsHistogram reads a histogram family back into the snapshot the
// registry wrote it from. Only the registry's own layout is accepted:
// the finite le bounds must be exactly BucketBounds(), the cumulative
// counts must not decrease, and a +Inf bucket must close the family.
// Count is the +Inf bucket's; _count is not consulted.
func (f Family) AsHistogram() (HistogramSnapshot, error) {
	var s HistogramSnapshot
	if f.Type != "histogram" {
		return s, fmt.Errorf("promtext: family %s has type %q, not histogram", f.Name, f.Type)
	}
	bounds := BucketBounds()
	var cum [histoAllBuckets]uint64
	var seen [histoAllBuckets]bool
	for _, smp := range f.Samples {
		switch smp.Name {
		case f.Name + "_bucket":
			leStr, ok := smp.Labels["le"]
			if !ok {
				return s, fmt.Errorf("promtext: %s bucket sample without le label", f.Name)
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				return s, fmt.Errorf("promtext: %s bucket le %q: %w", f.Name, leStr, err)
			}
			if smp.Value < 0 {
				return s, fmt.Errorf("promtext: %s bucket count %v negative", f.Name, smp.Value)
			}
			b := slices.Index(bounds, le)
			if math.IsInf(le, +1) {
				b = histoAllBuckets - 1
			} else if b < 0 {
				return s, fmt.Errorf("promtext: histogram %s bound le=%v is not in the shared bucket layout", f.Name, le)
			}
			cum[b], seen[b] = uint64(smp.Value), true
		case f.Name + "_sum":
			s.SumSec = smp.Value
		}
	}
	if !seen[histoAllBuckets-1] {
		return s, fmt.Errorf("promtext: histogram %s has no +Inf bucket", f.Name)
	}
	var prev uint64
	for b, c := range cum {
		if !seen[b] {
			return s, fmt.Errorf("promtext: histogram %s lacks the shared bucket le=%v", f.Name, bounds[b])
		}
		if c < prev {
			return s, fmt.Errorf("promtext: histogram %s cumulative counts decrease at bucket %d", f.Name, b)
		}
		s.Buckets[b] = c - prev
		prev = c
	}
	s.Count = prev
	return s, nil
}
