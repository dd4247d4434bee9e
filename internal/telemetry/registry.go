package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one metric dimension. Labels are ordered pairs rather than a
// map so a series' identity and its rendering are deterministic.
type Label struct {
	Key, Value string
}

// Labels is the label set of one series.
type Labels []Label

// String renders the label set as {k="v",...}, with values escaped per the
// exposition format. Empty label sets render as "".
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition format's label escaping:
// backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp applies the exposition format's HELP escaping: backslash and
// newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// metric kinds, matching the exposition TYPE keywords.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one (labels, value source) pair inside a family.
type series struct {
	labels Labels
	// exactly one of these is set, per the family's kind
	counter     *Counter
	hist        *Histogram
	counterFunc func() uint64
	gaugeFunc   func() float64
}

// family groups every series sharing a metric name under one HELP/TYPE.
type family struct {
	name   string
	help   string
	kind   string
	series []*series
}

// Registry holds registered metrics and renders them in the Prometheus
// text exposition format. A nil *Registry is the metrics-off mode: every
// registration returns a nil instrument (whose methods no-op) and
// WritePrometheus writes nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	ordered  []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a series, creating its family on first use. Registering a
// second series with the same name and labels returns the existing one
// (idempotent), so independent layers can share a metric. A name reused
// with a different kind panics: that is a programming error, caught in
// tests the first time the registry renders.
func (r *Registry) register(name, help, kind string, labels Labels, s *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.ordered = append(r.ordered, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	key := labels.String()
	for _, old := range f.series {
		if old.labels.String() == key {
			return old
		}
	}
	s.labels = labels
	f.series = append(f.series, s)
	return s
}

// Counter registers (or fetches) a counter series. On a nil registry it
// returns nil, whose methods no-op.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	s := r.register(name, help, kindCounter, labels, &series{counter: &Counter{}})
	return s.counter
}

// Histogram registers (or fetches) a histogram series. Nil registry
// returns nil.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	s := r.register(name, help, kindHistogram, labels, &series{hist: &Histogram{}})
	return s.hist
}

// CounterFunc registers a counter whose value is read at scrape time —
// the zero-hot-path-cost way to expose an existing atomic counter. fn
// must be safe to call concurrently.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounter, labels, &series{counterFunc: fn})
}

// GaugeFunc registers a gauge read at scrape time. fn must be safe to
// call concurrently; it may take internal locks (occupancy gauges do).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, labels, &series{gaugeFunc: fn})
}

// WritePrometheus renders every registered metric in the text exposition
// format: families sorted by name, each with its HELP and TYPE line,
// series in registration order. Value-reading funcs run on the scraping
// goroutine, never on the serving hot path.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, len(r.ordered))
	copy(fams, r.ordered)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case s.counterFunc != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.counterFunc())
			case s.gaugeFunc != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, s.labels,
					strconv.FormatFloat(s.gaugeFunc(), 'g', -1, 64))
			case s.hist != nil:
				writeHistogram(bw, f.name, s.labels, s.hist)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative _bucket lines
// with le in seconds, then _sum and _count. Leading and trailing empty
// buckets are elided (the +Inf bucket always renders), keeping the output
// compact while staying a well-formed cumulative histogram.
func writeHistogram(w io.Writer, name string, labels Labels, h *Histogram) {
	counts, sumNs := h.snapshot()
	first, last := -1, -1
	var total uint64
	for i, c := range counts {
		total += c
		if c != 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	var cum uint64
	if first >= 0 {
		for i := first; i <= last; i++ {
			cum += counts[i]
			// Bucket i spans [2^(i-1), 2^i) ns; its le bound is 2^i ns.
			le := float64(uint64(1)<<uint(i)) / 1e9
			fmt.Fprintf(w, "%s_bucket%s %d\n", name,
				withLE(labels, strconv.FormatFloat(le, 'g', -1, 64)), cum)
		}
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, "+Inf"), total)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels,
		strconv.FormatFloat(float64(sumNs)/1e9, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, total)
}

// withLE appends the le label to a label set.
func withLE(labels Labels, le string) Labels {
	out := make(Labels, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, Label{Key: "le", Value: le})
}

// ParseText is a validating parser for the subset of the Prometheus text
// exposition format this package emits. It returns sample values keyed by
// the full series string (name plus rendered labels, e.g.
// `cache_hits_total{tier="dram"}`), and errors on malformed HELP/TYPE
// lines, samples without a preceding TYPE, or unparsable values. Tests
// and the end-to-end reconciliation check consume it.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	typed := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || fields[2] == "" {
				return nil, fmt.Errorf("telemetry: line %d: malformed %s line %q", lineNo, fields[1], line)
			}
			if fields[1] == "TYPE" {
				switch fields[3] {
				case kindCounter, kindGauge, kindHistogram, "summary", "untyped":
				default:
					return nil, fmt.Errorf("telemetry: line %d: unknown type %q", lineNo, fields[3])
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		name, rest, err := splitSeries(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %v", lineNo, err)
		}
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if t, ok := typed[strings.TrimSuffix(base, suffix)]; ok && t == kindHistogram {
				base = strings.TrimSuffix(base, suffix)
				break
			}
		}
		if _, ok := typed[base]; !ok {
			return nil, fmt.Errorf("telemetry: line %d: sample %q has no TYPE", lineNo, base)
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: bad value %q", lineNo, rest)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// splitSeries splits a sample line into its series identity (name plus
// label block, verbatim) and its value string, respecting quoted label
// values that may contain spaces or escaped quotes.
func splitSeries(line string) (string, string, error) {
	end := len(line)
	if i := strings.IndexByte(line, '{'); i >= 0 {
		inQuote := false
		esc := false
		end = -1
		for j := i + 1; j < len(line); j++ {
			c := line[j]
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inQuote = !inQuote
			case c == '}' && !inQuote:
				end = j + 1
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", "", fmt.Errorf("unterminated label block in %q", line)
		}
	} else if sp := strings.IndexByte(line, ' '); sp >= 0 {
		end = sp
	} else {
		return "", "", fmt.Errorf("sample without value in %q", line)
	}
	rest := strings.TrimSpace(line[end:])
	if rest == "" {
		return "", "", fmt.Errorf("sample without value in %q", line)
	}
	// A timestamp may follow the value; this package never emits one.
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		rest = rest[:sp]
	}
	return line[:end], rest, nil
}
