package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decoydb/internal/core"
)

// fakeSource emits a fixed set of samples.
type fakeSource struct {
	name    string
	collect func(e *Emitter)
}

func (f fakeSource) Name() string       { return f.name }
func (f fakeSource) Collect(e *Emitter) { f.collect(e) }
func (f fakeSource) Status() any        { return f.name }

// TestExpositionGolden pins the exact text exposition: family sort
// order, HELP/TYPE lines, label rendering, cumulative histogram
// buckets with +Inf, integer-vs-float value formatting.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Register(fakeSource{name: "fake", collect: func(e *Emitter) {
		e.Gauge("zz_last", "Sorted last despite being emitted first.", 1.5)
		e.Counter("aa_events_total", "Events seen.", 42, L("kind", "connect"))
		e.Counter("aa_events_total", "Events seen.", 7, L("kind", "login"))
		e.Histogram("mm_batch_size", "Batch sizes.",
			[]float64{1, 2, 4}, []uint64{3, 1, 0}, 9, 5)
	}})

	var sb strings.Builder
	if err := r.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_events_total Events seen.
# TYPE aa_events_total counter
aa_events_total{kind="connect"} 42
aa_events_total{kind="login"} 7
# HELP mm_batch_size Batch sizes.
# TYPE mm_batch_size histogram
mm_batch_size_bucket{le="1"} 3
mm_batch_size_bucket{le="2"} 4
mm_batch_size_bucket{le="4"} 4
mm_batch_size_bucket{le="+Inf"} 5
mm_batch_size_sum 9
mm_batch_size_count 5
# HELP zz_last Sorted last despite being emitted first.
# TYPE zz_last gauge
zz_last 1.5
`
	if sb.String() != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// TestExpositionEscaping covers label-value and HELP escaping.
func TestExpositionEscaping(t *testing.T) {
	e := NewEmitter()
	e.Counter("x_total", "line one\nline two \\ end", 1, L("v", "a\"b\\c\nd"))
	var sb strings.Builder
	if err := e.Write(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# HELP x_total line one\\nline two \\\\ end\n" +
		"# TYPE x_total counter\n" +
		"x_total{v=\"a\\\"b\\\\c\\nd\"} 1\n"
	if sb.String() != want {
		t.Errorf("escaping mismatch\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// TestDurationsExposition checks the DurationHist translation: bounds in
// seconds, overflow only in +Inf, sum in seconds.
func TestDurationsExposition(t *testing.T) {
	var h core.DurationHist
	h.Observe(time.Microsecond)     // bucket 0
	h.Observe(3 * time.Microsecond) // bucket 2
	h.Observe(time.Hour)            // overflow

	e := NewEmitter()
	e.Durations("lat_seconds", "Latency.", h)
	var sb strings.Builder
	if err := e.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="1e-06"} 1`,
		`lat_seconds_bucket{le="4e-06"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestRegisterDuplicateNames: colliding sources get #N suffixes instead
// of shadowing each other.
func TestRegisterDuplicateNames(t *testing.T) {
	r := NewRegistry()
	r.Register(fakeSource{name: "g"})
	r.Register(fakeSource{name: "g"})
	st := r.Status()
	if _, ok := st["g"]; !ok {
		t.Error("first registration lost its name")
	}
	if _, ok := st["g#2"]; !ok {
		t.Errorf("second registration not suffixed: keys %v", keys(st))
	}
}

func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestConcurrentScrapeAndUpdate hammers the registry from updaters,
// scrapers and registrars at once — the -race guarantee for the
// registry and for sources read at scrape time while their owners
// update them.
func TestConcurrentScrapeAndUpdate(t *testing.T) {
	r := NewRegistry()
	var n atomic.Uint64
	r.Register(fakeSource{name: "c", collect: func(e *Emitter) {
		e.Counter("c_total", "counter", float64(n.Load()))
	}})
	extra := fakeSource{name: "extra", collect: func(e *Emitter) {
		e.Gauge("extra", "registered mid-scrape", 1)
	}}

	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n.Add(1)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < iters/10; i++ {
				var sb strings.Builder
				if err := r.WriteMetrics(&sb); err != nil {
					t.Error(err)
					return
				}
				r.Status()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < iters/50; i++ {
				r.Register(extra)
			}
		}()
	}
	wg.Wait()

	var sb strings.Builder
	if err := r.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("c_total %d\n", 4*iters); !strings.Contains(sb.String(), want) {
		t.Errorf("final scrape lacks %q", want)
	}
	if got, want := len(r.Status()), 1+4*(iters/50); got != want {
		t.Errorf("%d sources registered, want %d", got, want)
	}
}
