package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/evstore"
)

// testStore builds a store with n sources: even sources hit a low-tier
// Redis trap (logins only), odd sources hit a medium Postgres honeypot
// (login + command).
func testStore(t *testing.T, n int) *evstore.Store {
	t.Helper()
	store := evstore.NewSharded(traceStart, 20, nil, 2)
	ingestSources(t, store, 0, n)
	return store
}

func ingestSources(t *testing.T, store *evstore.Store, from, to int) {
	t.Helper()
	low := core.Info{DBMS: core.Redis, Level: core.Low, Group: core.GroupMulti, Config: core.ConfigDefault}
	med := core.Info{DBMS: core.Postgres, Level: core.Medium, Group: core.GroupMedium, Config: core.ConfigDefault}
	var batch []core.Event
	for i := from; i < to; i++ {
		src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)}), 40000)
		at := traceStart.Add(time.Duration(i%5) * 24 * time.Hour)
		if i%2 == 0 {
			batch = append(batch,
				core.Event{Time: at, Src: src, Honeypot: low, Kind: core.EventConnect},
				core.Event{Time: at, Src: src, Honeypot: low, Kind: core.EventLogin, User: "root", Pass: "123456"},
			)
		} else {
			batch = append(batch,
				core.Event{Time: at, Src: src, Honeypot: med, Kind: core.EventConnect},
				core.Event{Time: at, Src: src, Honeypot: med, Kind: core.EventLogin, User: "postgres", Pass: "postgres", OK: true},
				core.Event{Time: at, Src: src, Honeypot: med, Kind: core.EventCommand, Command: "SELECT VERSION"},
			)
		}
	}
	if err := store.RecordBatch(batch); err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServerEndpoints round-trips every admin endpoint over HTTP.
func TestServerEndpoints(t *testing.T) {
	store := testStore(t, 6)
	store.Snapshot()
	store.Snapshot()
	reg := NewRegistry()
	reg.Register(StoreSource(store))
	tr := NewTraceRing(TraceOptions{})
	tr.Record(core.Event{
		Time: traceStart, Src: netip.MustParseAddrPort("203.0.113.1:40000"),
		Honeypot: core.Info{DBMS: core.Redis, Level: core.Low}, Kind: core.EventConnect,
	})
	s := NewServer(ServerOptions{
		Registry: reg,
		Traces:   tr,
		Query:    NewQueryHandler(QueryOptions{Store: store}),
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"decoydb_store_events_total 15",
		"decoydb_store_sources 6",
		"decoydb_traces_active 1",
		"decoydb_admin_scrapes_total 1",
		"# TYPE decoydb_store_events_total counter",
		"decoydb_store_snapshot_seconds_count 2",
		"decoydb_store_snapshot_lock_seconds_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Errorf("/healthz: %d %s", code, body)
	}

	code, body = get(t, srv, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz: %d", code)
	}
	var status map[string]any
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	for _, key := range []string{"store", "traces", "admin", "now"} {
		if _, ok := status[key]; !ok {
			t.Errorf("/statusz missing %q: %v", key, keys(status))
		}
	}
	if st, ok := status["store"].(map[string]any); ok {
		for _, key := range []string{"snapshot_build", "snapshot_lock"} {
			if h, _ := st[key].(map[string]any); h["Count"] != 2.0 {
				t.Errorf("/statusz store %s = %v, want 2 observations", key, st[key])
			}
		}
	}

	code, body = get(t, srv, "/traces")
	if code != http.StatusOK || !strings.Contains(body, "203.0.113.1:40000") {
		t.Errorf("/traces: %d %s", code, body)
	}

	code, body = get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: %d", code)
	}

	if code, _ = get(t, srv, "/nosuch"); code != http.StatusNotFound {
		t.Errorf("/nosuch: %d, want 404", code)
	}
	code, body = get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/query") {
		t.Errorf("index: %d %s", code, body)
	}
}

func queryJSON(t *testing.T, srv *httptest.Server, params string) QueryResponse {
	t.Helper()
	code, body := get(t, srv, "/query?"+params)
	if code != http.StatusOK {
		t.Fatalf("/query?%s: %d %s", params, code, body)
	}
	var resp QueryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("/query?%s: bad JSON: %v", params, err)
	}
	return resp
}

// TestQueryEndpoint covers selection, pagination limits, and the
// fresh-snapshot path that lets counts advance under live ingest.
func TestQueryEndpoint(t *testing.T) {
	store := testStore(t, 5) // sources 0,2,4 low Redis; 1,3 medium Postgres
	s := NewServer(ServerOptions{
		Registry: NewRegistry(),
		Query:    NewQueryHandler(QueryOptions{Store: store, MaxLimit: 3}),
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := queryJSON(t, srv, "")
	if resp.Total != 5 || resp.UniqueIPs != 5 || len(resp.Records) != 3 {
		t.Fatalf("zero query: total=%d unique=%d records=%d, want 5/5/3 (MaxLimit caps the page)",
			resp.Total, resp.UniqueIPs, len(resp.Records))
	}
	if resp.Events != 12 {
		t.Errorf("events = %d, want 12", resp.Events)
	}

	// Tier filter: only the two Postgres sources are medium/high.
	resp = queryJSON(t, srv, "tier=mediumhigh")
	if resp.Total != 2 {
		t.Errorf("mediumhigh total = %d, want 2", resp.Total)
	}
	for _, r := range resp.Records {
		if r.Commands != 1 || r.LoginOK != 1 {
			t.Errorf("medium record %+v, want 1 command, 1 accepted login", r)
		}
		if r.Verdict != "scouting" {
			t.Errorf("verdict %q, want scouting (SELECT VERSION)", r.Verdict)
		}
	}

	// DBMS filter plus top-creds.
	resp = queryJSON(t, srv, "dbms="+core.Redis+"&creds=1")
	if resp.Total != 3 {
		t.Errorf("redis total = %d, want 3", resp.Total)
	}
	if len(resp.Creds) != 1 || resp.Creds[0].User != "root" || resp.Creds[0].Count != 3 {
		t.Errorf("creds = %+v, want root x3", resp.Creds)
	}
	if resp.Logins != 3 {
		t.Errorf("logins = %d, want 3", resp.Logins)
	}

	// Day-range filter: day 0 holds sources 0 (low) — i%5==0.
	resp = queryJSON(t, srv, "from=0&to=1")
	if resp.Total != 1 {
		t.Errorf("day-0 total = %d, want 1", resp.Total)
	}

	// Pagination: offset walks, limit caps at MaxLimit.
	resp = queryJSON(t, srv, "limit=2&offset=4")
	if resp.Total != 5 || len(resp.Records) != 1 || resp.Offset != 4 {
		t.Errorf("page: total=%d records=%d offset=%d, want 5/1/4", resp.Total, len(resp.Records), resp.Offset)
	}
	resp = queryJSON(t, srv, "limit=100")
	if len(resp.Records) != 3 {
		t.Errorf("limit=100 returned %d records, want MaxLimit=3", len(resp.Records))
	}
	resp = queryJSON(t, srv, "offset=99")
	if len(resp.Records) != 0 || resp.Total != 5 {
		t.Errorf("past-the-end offset: records=%d total=%d", len(resp.Records), resp.Total)
	}

	// Records come back in address order, so pages never overlap.
	page1 := queryJSON(t, srv, "limit=2&offset=0")
	page2 := queryJSON(t, srv, "limit=2&offset=2")
	if page1.Records[1].Addr >= page2.Records[0].Addr {
		t.Errorf("pages out of order: %q then %q", page1.Records[1].Addr, page2.Records[0].Addr)
	}

	// Bad parameters are 400s, not 500s.
	for _, p := range []string{"tier=bogus", "limit=x", "from=-1"} {
		if code, _ := get(t, srv, "/query?"+p); code != http.StatusBadRequest {
			t.Errorf("/query?%s: %d, want 400", p, code)
		}
	}

	// Live ingest: a fresh snapshot sees the new sources (the cached one
	// deliberately may not).
	ingestSources(t, store, 5, 8)
	resp = queryJSON(t, srv, "fresh=1")
	if resp.Total != 8 {
		t.Errorf("after ingest: total = %d, want 8", resp.Total)
	}
}

// TestServerStart binds a real listener on port 0 and scrapes it twice,
// checking the scrape counter advances between scrapes.
func TestServerStart(t *testing.T) {
	reg := NewRegistry()
	s := NewServer(ServerOptions{Registry: reg})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	scrape := func() string {
		resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if out := scrape(); !strings.Contains(out, "decoydb_admin_scrapes_total 1") {
		t.Errorf("first scrape:\n%s", out)
	}
	if out := scrape(); !strings.Contains(out, "decoydb_admin_scrapes_total 2") {
		t.Errorf("second scrape missing advanced counter")
	}
}

// TestReloadForwardEndpoint covers the admin half of live tier
// re-ranking: POST /reload/forward parses the address list and hands it
// to the hook; everything malformed is rejected before the hook runs.
func TestReloadForwardEndpoint(t *testing.T) {
	var got [][]string
	var fail error
	srv := NewServer(ServerOptions{
		Registry: NewRegistry(),
		ReloadForward: func(addrs []string) error {
			got = append(got, addrs)
			return fail
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/reload/forward",
			"application/x-www-form-urlencoded", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	if code, body := post("addrs=a:9000|b:9000, c:9000"); code != http.StatusOK {
		t.Fatalf("reload = %d %q, want 200", code, body)
	}
	if len(got) != 1 || len(got[0]) != 3 || got[0][0] != "a:9000" || got[0][2] != "c:9000" {
		t.Fatalf("hook received %v, want the 3 parsed addrs", got)
	}

	// GET must not trigger a reload.
	if code, _ := get(t, ts, "/reload/forward"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload/forward = %d, want 405", code)
	}
	// Missing addrs is a client error, not a hook call.
	if code, _ := post(""); code != http.StatusBadRequest {
		t.Fatalf("empty POST = %d, want 400", code)
	}
	if len(got) != 1 {
		t.Fatalf("hook ran on a rejected request (%d calls)", len(got))
	}
	// A hook error (e.g. sink closed) surfaces as 422 with the message.
	fail = fmt.Errorf("sink closed")
	if code, body := post("addrs=a:9000"); code != http.StatusUnprocessableEntity || !strings.Contains(body, "sink closed") {
		t.Fatalf("hook error = %d %q, want 422 with the message", code, body)
	}

	// The endpoint is advertised on the index, but only when mounted.
	if _, body := get(t, ts, "/"); !strings.Contains(body, "/reload/forward") {
		t.Fatal("index does not list /reload/forward")
	}
	plain := httptest.NewServer(NewServer(ServerOptions{Registry: NewRegistry()}).Handler())
	defer plain.Close()
	if code, _ := get(t, plain, "/reload/forward"); code != http.StatusNotFound {
		t.Fatalf("unmounted /reload/forward = %d, want 404", code)
	}
}
