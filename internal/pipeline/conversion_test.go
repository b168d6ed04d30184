package pipeline

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/geoip"
	"decoydb/internal/simnet"
)

// TestConversionRoundTrip checks the paper's Fig. 1 conversion end to
// end. The simulated deployment's traffic goes to a LogWriter and to an
// in-process store at once; Load must build from the log files the store
// the traffic built: every record with its activities and actions, the
// credential tallies, the logins and the hourly unique-source series.
func TestConversionRoundTrip(t *testing.T) {
	cfg := simnet.Config{Seed: 1, Scale: 1 << 14, Days: core.ExperimentDays}
	if testing.Short() {
		cfg.Scale, cfg.Days = 1<<16, 3
	}
	dir := t.TempDir()
	lw, err := NewLogWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := evstore.New(core.ExperimentStart, cfg.Days, geoip.Default())
	if _, err := simnet.Run(context.Background(), cfg, lw, live); err != nil {
		t.Fatal(err)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, core.ExperimentStart, cfg.Days, geoip.Default())
	if err != nil {
		t.Fatal(err)
	}

	want, got := live.Snapshot(), loaded.Snapshot()
	if got.Events() != want.Events() {
		t.Fatalf("loaded %d events, the run made %d", got.Events(), want.Events())
	}
	wantRecs, gotRecs := want.Recs(), got.Recs()
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("loaded %d sources, the run saw %d", len(gotRecs), len(wantRecs))
	}
	for i, w := range wantRecs {
		g := *gotRecs[i]
		if !g.FirstSeen.Equal(w.FirstSeen) || !g.LastSeen.Equal(w.LastSeen) {
			t.Fatalf("%v seen %v to %v after loading, %v to %v in process", w.Addr, g.FirstSeen, g.LastSeen, w.FirstSeen, w.LastSeen)
		}
		g.FirstSeen, g.LastSeen = w.FirstSeen, w.LastSeen
		if !reflect.DeepEqual(g, *w) {
			t.Fatalf("record %v after loading:\n%+v\nin process:\n%+v", w.Addr, g, *w)
		}
	}

	queries := []evstore.Query{{}}
	for _, in := range core.DefaultDeployment().Instances {
		if q := (evstore.Query{DBMS: in.DBMS}); in.Level == core.Low && !slices.Contains(queries, q) {
			queries = append(queries, q)
		}
	}
	for _, q := range queries {
		if g, w := got.Creds(q, 0), want.Creds(q, 0); !reflect.DeepEqual(g, w) {
			t.Errorf("%+v: %d credentials after loading, %d in process", q, len(g), len(w))
		}
		if g, w := got.Logins(q), want.Logins(q); g != w {
			t.Errorf("%+v: %d logins after loading, %d in process", q, g, w)
		}
		if g, w := got.HourlyUnique(q), want.HourlyUnique(q); !slices.Equal(g, w) {
			t.Errorf("%+v: hourly unique sources after loading %v, in process %v", q, g, w)
		}
		if g, w := got.CumulativeNew(q), want.CumulativeNew(q); !slices.Equal(g, w) {
			t.Errorf("%+v: cumulative new sources after loading %v, in process %v", q, g, w)
		}
	}
	t.Logf("%d events from %d sources, %d queries", want.Events(), len(wantRecs), len(queries))
}
