// Package obs is the observability plane: a concurrency-safe metric
// registry with Prometheus text exposition, scrape-time adapters that
// map every subsystem's existing Stats snapshot into metrics, an admin
// HTTP server (/metrics, /healthz, /statusz, /debug/pprof, /traces,
// /query), and a bounded ring of attack-session trace spans.
//
// The paper's 278-node deployment shipped everything to one analysis
// host and judged the pipeline offline; operating that pipeline needs
// the inverse: seeing loss, lag and attacker behaviour while the
// capture is running. The design principle throughout is *scrape-time
// adaptation*: the hot paths (bus workers, relay pump, WAL appends)
// keep their existing cheap counters, and only when a scraper asks does
// an adapter take one Stats() snapshot and translate it — zero
// instrumentation cost when nobody is watching, one snapshot per scrape
// when somebody is.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"decoydb/internal/core"
)

// Source is one registered stats provider: it names itself for the
// /statusz JSON object, contributes metric samples at scrape time, and
// returns a JSON-marshalable snapshot for /statusz. Adapters over the
// existing Stats types (bus, relay, wal, evstore) implement it.
type Source interface {
	// Name keys this source in /statusz and names instrument metrics.
	Name() string
	// Collect contributes metric samples; called per /metrics scrape.
	Collect(e *Emitter)
	// Status returns the point-in-time snapshot rendered in /statusz.
	Status() any
}

// Registry holds the registered sources. It is safe for concurrent
// registration and scraping, and implements no caching: every scrape
// reflects the live counters.
type Registry struct {
	mu      sync.Mutex
	sources []Source
	names   map[string]int // registered name -> count, for #N suffixing
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]int)}
}

// named wraps a Source to override its name — used when two sources of
// the same name register (suffix #N, mirroring the bus's sink naming).
type named struct {
	Source
	name string
}

func (n named) Name() string { return n.name }

// Register adds a source. A name collision gets a 1-based "#N" suffix
// (registration order preserved), so two WAL logs or two buses stay
// distinguishable rather than silently shadowing each other.
func (r *Registry) Register(s Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := s.Name()
	r.names[name]++
	if n := r.names[name]; n > 1 {
		s = named{Source: s, name: fmt.Sprintf("%s#%d", name, n)}
	}
	r.sources = append(r.sources, s)
}

// snapshotSources copies the source list so scrapes never hold the
// registration lock while calling into collectors.
func (r *Registry) snapshotSources() []Source {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Source(nil), r.sources...)
}

// WriteMetrics scrapes every source and writes the Prometheus text
// exposition (version 0.0.4): families sorted by name, HELP/TYPE
// emitted once per family, label values escaped.
func (r *Registry) WriteMetrics(w io.Writer) error {
	e := NewEmitter()
	for _, s := range r.snapshotSources() {
		s.Collect(e)
	}
	return e.Write(w)
}

// Status scrapes every source's Status snapshot, keyed by source name —
// the /statusz payload.
func (r *Registry) Status() map[string]any {
	out := make(map[string]any)
	for _, s := range r.snapshotSources() {
		out[s.Name()] = s.Status()
	}
	return out
}

// Label is one metric label pair.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind is the TYPE line of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// sample is one exposition line within a family.
type sample struct {
	suffix string // "", "_bucket", "_sum", "_count"
	labels []Label
	value  float64
}

// family is one metric name with its HELP/TYPE and samples.
type family struct {
	name    string
	help    string
	kind    metricKind
	samples []sample
}

// Emitter accumulates samples during one scrape pass. It is not safe
// for concurrent use; each scrape builds its own.
type Emitter struct {
	fams map[string]*family
}

// NewEmitter returns an empty emitter.
func NewEmitter() *Emitter {
	return &Emitter{fams: make(map[string]*family)}
}

func (e *Emitter) fam(name, help string, kind metricKind) *family {
	f := e.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		e.fams[name] = f
	}
	return f
}

// Counter emits one counter sample. Counter names should end in
// "_total" per Prometheus conventions; the emitter does not enforce it.
func (e *Emitter) Counter(name, help string, v float64, labels ...Label) {
	f := e.fam(name, help, kindCounter)
	f.samples = append(f.samples, sample{labels: labels, value: v})
}

// Gauge emits one gauge sample.
func (e *Emitter) Gauge(name, help string, v float64, labels ...Label) {
	f := e.fam(name, help, kindGauge)
	f.samples = append(f.samples, sample{labels: labels, value: v})
}

// Histogram emits a full histogram family from per-bucket counts:
// bounds[i] is the inclusive upper bound of counts[i], count is the
// total number of observations (observations above the last bound show
// up only in the +Inf bucket), and sum is the sum of all observations.
func (e *Emitter) Histogram(name, help string, bounds []float64, counts []uint64, sum float64, count uint64, labels ...Label) {
	f := e.fam(name, help, kindHistogram)
	var cum uint64
	for i, bound := range bounds {
		if i < len(counts) {
			cum += counts[i]
		}
		bl := append(append([]Label(nil), labels...), L("le", formatFloat(bound)))
		f.samples = append(f.samples, sample{suffix: "_bucket", labels: bl, value: float64(cum)})
	}
	inf := append(append([]Label(nil), labels...), L("le", "+Inf"))
	f.samples = append(f.samples, sample{suffix: "_bucket", labels: inf, value: float64(count)})
	f.samples = append(f.samples, sample{suffix: "_sum", labels: labels, value: sum})
	f.samples = append(f.samples, sample{suffix: "_count", labels: labels, value: float64(count)})
}

// Durations emits a core.DurationHist as a histogram in seconds — the
// shared translation for the WAL append-latency and relay ack-RTT
// histograms.
func (e *Emitter) Durations(name, help string, h core.DurationHist, labels ...Label) {
	bounds := make([]float64, core.DurationBuckets)
	for i := range bounds {
		bounds[i] = core.DurationBucketBound(i).Seconds()
	}
	e.Histogram(name, help, bounds, h.Buckets[:], h.Sum.Seconds(), h.Count, labels...)
}

// Write renders the accumulated samples in the Prometheus text format.
// Families are sorted by name and samples keep emission order, so the
// output is deterministic — golden-testable.
func (e *Emitter) Write(w io.Writer) error {
	names := make([]string, 0, len(e.fams))
	for name := range e.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		f := e.fams[name]
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.samples {
			sb.WriteString(f.name)
			sb.WriteString(s.suffix)
			writeLabels(&sb, s.labels)
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(s.value))
			sb.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func writeLabels(sb *strings.Builder, labels []Label) {
	if len(labels) == 0 {
		return
	}
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a sample value: integers without exponent,
// everything else in Go's shortest round-trip form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
