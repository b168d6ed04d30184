package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"reflect"
	"testing"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/evstore"
)

// startPeer serves a QueryHandler-backed admin plane over httptest and
// returns its base URL (scheme included — Client accepts both forms).
func startPeer(t *testing.T, n int, from, to int) string {
	t.Helper()
	store := evstoreWith(t, from, to)
	srv := NewServer(ServerOptions{
		Registry: NewRegistry(),
		Query:    NewQueryHandler(QueryOptions{Store: store}),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func evstoreWith(t *testing.T, from, to int) *evstore.Store {
	t.Helper()
	store := testStore(t, 0)
	ingestSources(t, store, from, to)
	return store
}

func TestClientQueryAndStatusz(t *testing.T) {
	peer := startPeer(t, 0, 0, 6)
	cl := NewClient(peer, 5*time.Second)

	resp, err := cl.Query(context.Background(), QueryRequest{Limit: 3, Creds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.UniqueIPs != 6 || len(resp.Records) != 3 || resp.Total != 6 {
		t.Fatalf("query: unique=%d records=%d total=%d, want 6/3/6", resp.UniqueIPs, len(resp.Records), resp.Total)
	}
	if len(resp.Creds) == 0 {
		t.Fatal("query returned no creds")
	}

	status, err := cl.Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := status["admin"]; !ok {
		t.Fatalf("statusz missing admin section: %v", status)
	}
	// No collector runs behind this plane.
	if _, ok, err := CollectorFromStatus(status); err != nil || ok {
		t.Fatalf("CollectorFromStatus = ok=%v err=%v, want false/nil", ok, err)
	}
}

func TestClientErrors(t *testing.T) {
	cl := NewClient("127.0.0.1:1", 500*time.Millisecond)
	if _, err := cl.Query(context.Background(), QueryRequest{}); err == nil {
		t.Fatal("query against a dead address: want error")
	}
	peer := startPeer(t, 0, 0, 2)
	cl = NewClient(peer, 5*time.Second)
	if _, err := cl.Query(context.Background(), QueryRequest{Tier: "bogus"}); err == nil {
		t.Fatal("bad tier: want error surfaced from the 400")
	}
}

func TestQueryRequestValuesRoundTrip(t *testing.T) {
	req := QueryRequest{DBMS: "postgres", Tier: "low", From: 2, To: 9, Limit: 25, Offset: 50, Creds: 7, Fresh: true, Scope: ScopeLocal}
	u := url.URL{Path: "/query", RawQuery: req.Values().Encode()}
	r := httptest.NewRequest("GET", u.String(), nil)
	got, err := ParseQueryRequest(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip: got %+v, want %+v", got, req)
	}
}

func TestFanInMerge(t *testing.T) {
	// Local covers sources 0..4, the peer 3..8: source 3 overlaps, as a
	// farm that failed over mid-capture would.
	local := NewQueryHandler(QueryOptions{Store: evstoreWith(t, 0, 4)})
	peerURL := startPeer(t, 0, 3, 8)

	fi := NewFanIn(FanInOptions{Local: local, Peers: []string{peerURL}, Logf: t.Logf})
	// Mounted exactly as dbcollect mounts it: the tier handler takes the
	// plain QueryHandler's place behind ServerOptions.Query.
	srv := NewServer(ServerOptions{Registry: NewRegistry(), Query: fi})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := queryJSON(t, ts, "creds=10")
	if q.Tier == nil {
		t.Fatal("fanned-in response has no tier section")
	}
	if q.Tier.Collectors != 2 || q.Tier.Responded != 2 {
		t.Fatalf("tier = %+v, want 2 collectors, 2 responded", q.Tier)
	}
	if len(q.Tier.Peers) != 1 || !q.Tier.Peers[0].OK {
		t.Fatalf("peer status = %+v", q.Tier.Peers)
	}

	// 8 distinct sources; the overlapping one must be merged, not
	// double-counted.
	if q.UniqueIPs != 8 || q.Total != 8 || len(q.Records) != 8 {
		t.Fatalf("unique=%d total=%d records=%d, want 8/8/8", q.UniqueIPs, q.Total, len(q.Records))
	}
	// Events: local 4 sources (2+3+2+3 events) + peer 5 (3+2+3+2+3),
	// overlap NOT deduped (they are distinct captured events).
	if want := int64(10 + 13); q.Events != want {
		t.Fatalf("events = %d, want %d", q.Events, want)
	}

	// The overlapping source (index 3 → 203.0.113.4, medium tier) has
	// its per-collector counters summed.
	var overlapped *RecordRow
	for i := range q.Records {
		if q.Records[i].Addr == "203.0.113.4" {
			overlapped = &q.Records[i]
		}
	}
	if overlapped == nil {
		t.Fatal("overlapping source missing from merged records")
	}
	if overlapped.Sessions != 2 || overlapped.Logins != 2 {
		t.Fatalf("overlapped source = %+v, want sessions=2 logins=2", overlapped)
	}

	// Records come back in address order.
	for i := 1; i < len(q.Records); i++ {
		if !addrLess(q.Records[i-1].Addr, q.Records[i].Addr) {
			t.Fatalf("records unsorted: %s before %s", q.Records[i-1].Addr, q.Records[i].Addr)
		}
	}

	// Credentials merged by identity across the tier: "root"/"123456"
	// appears on both collectors (4 even sources total).
	for _, c := range q.Creds {
		if c.User == "root" && c.Pass == "123456" && c.Count != 4 {
			t.Fatalf("root cred count = %d, want 4 (merged)", c.Count)
		}
	}

	// Paging across the merged set: page 2 of size 3.
	page := queryJSON(t, ts, "limit=3&offset=3")
	if len(page.Records) != 3 || page.Offset != 3 {
		t.Fatalf("page: %d records at offset %d, want 3 at 3", len(page.Records), page.Offset)
	}
	if !reflect.DeepEqual(page.Records, q.Records[3:6]) {
		t.Fatalf("page 2 = %+v, want %+v", page.Records, q.Records[3:6])
	}

	st := fi.Status().(map[string]any)
	if st["queries"].(uint64) == 0 || st["peer_errors"].(uint64) != 0 {
		t.Fatalf("fanin status: %v", st)
	}
}

// TestFanInRefusesPagesPastMaxLimit: every collector caps the wide page
// at MaxLimit, so the merged order is only known that deep. A page
// within it is exact; a deeper one is refused, not answered shifted.
func TestFanInRefusesPagesPastMaxLimit(t *testing.T) {
	local := NewQueryHandler(QueryOptions{Store: evstoreWith(t, 0, 4), MaxLimit: 2})
	fi := NewFanIn(FanInOptions{Local: local, Peers: []string{startPeer(t, 0, 3, 8)}, Logf: t.Logf})
	ts := httptest.NewServer(NewServer(ServerOptions{Registry: NewRegistry(), Query: fi}).Handler())
	defer ts.Close()

	first := queryJSON(t, ts, "limit=2")
	page := queryJSON(t, ts, "offset=1&limit=1")
	if len(first.Records) != 2 || !reflect.DeepEqual(page.Records, first.Records[1:]) {
		t.Fatalf("offset=1&limit=1 = %+v, want record 1 of %+v", page.Records, first.Records)
	}
	if code, body := get(t, ts, "/query?offset=2&limit=1"); code != http.StatusBadRequest {
		t.Fatalf("offset=2&limit=1 past MaxLimit 2: %d %s, want 400", code, body)
	}
}

// TestFanInCredOrderMatchesLocal: the tier ranks credentials exactly as
// a collector's own /query does, ties on count included, so the two
// never disagree on which of equal rows comes first.
func TestFanInCredOrderMatchesLocal(t *testing.T) {
	store := evstore.NewSharded(traceStart, 20, nil, 2)
	for i, dbms := range []string{core.Redis, core.MySQL, core.MSSQL} {
		store.Record(core.Event{
			Time: traceStart, Src: netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)}), 40000),
			Honeypot: core.Info{DBMS: dbms, Level: core.Low}, Kind: core.EventLogin, User: "sa", Pass: "x",
		})
	}
	local := NewQueryHandler(QueryOptions{Store: store})
	ts := httptest.NewServer(NewServer(ServerOptions{Registry: NewRegistry(), Query: NewFanIn(FanInOptions{Local: local})}).Handler())
	defer ts.Close()

	own, err := local.Respond(QueryRequest{Creds: 10})
	if err != nil {
		t.Fatal(err)
	}
	tier := queryJSON(t, ts, "creds=10")
	if !reflect.DeepEqual(tier.Creds, own.Creds) {
		t.Fatalf("tier creds %+v, local %+v", tier.Creds, own.Creds)
	}
	for i, dbms := range []string{core.MSSQL, core.MySQL, core.Redis} {
		if own.Creds[i].DBMS != dbms {
			t.Fatalf("creds %+v, want %s at %d", own.Creds, dbms, i)
		}
	}
}

// TestFanInMutualPeers is the recursion regression test: in a real
// tier EVERY collector mounts a fan-in and lists the others as peers,
// so peer fetches must be scoped to the peer's local capture — without
// scope=local two mutually-peered fan-ins ask each other forever.
func TestFanInMutualPeers(t *testing.T) {
	// Build both planes first so each fan-in can list the other.
	newTier := func(from, to int) (*FanIn, *httptest.Server) {
		fi := NewFanIn(FanInOptions{
			Local:   NewQueryHandler(QueryOptions{Store: evstoreWith(t, from, to)}),
			Timeout: 5 * time.Second,
			Logf:    t.Logf,
		})
		srv := NewServer(ServerOptions{Registry: NewRegistry(), Query: fi})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return fi, ts
	}
	fiA, tsA := newTier(0, 3)
	fiB, tsB := newTier(3, 6)
	fiA.clients = append(fiA.clients, NewClient(tsB.URL, 5*time.Second))
	fiB.clients = append(fiB.clients, NewClient(tsA.URL, 5*time.Second))

	for _, ts := range []*httptest.Server{tsA, tsB} {
		q := queryJSON(t, ts, "")
		if q.Tier == nil || q.Tier.Responded != 2 {
			t.Fatalf("mutual tier via %s: %+v, want 2 responded", ts.URL, q.Tier)
		}
		// 3 local + 3 remote distinct sources, merged once each.
		if q.UniqueIPs != 6 || len(q.Records) != 6 {
			t.Fatalf("mutual tier via %s: unique=%d records=%d, want 6/6", ts.URL, q.UniqueIPs, len(q.Records))
		}
	}
	// The scoped fetches must not have fanned out again: each side
	// served exactly one merged query (ours) — the peer's scope=local
	// probe bypasses the merge path entirely.
	if a, b := fiA.queries.Load(), fiB.queries.Load(); a != 1 || b != 1 {
		t.Fatalf("merged queries served = %d/%d, want 1/1 (scope=local must bypass fan-out)", a, b)
	}
}

func TestFanInPeerFailure(t *testing.T) {
	local := NewQueryHandler(QueryOptions{Store: evstoreWith(t, 0, 4)})
	fi := NewFanIn(FanInOptions{
		Local:   local,
		Peers:   []string{"127.0.0.1:1"}, // nothing listens here
		Timeout: time.Second,
		Logf:    t.Logf,
	})
	srv := NewServer(ServerOptions{Registry: NewRegistry(), Query: fi})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := queryJSON(t, ts, "")
	if q.Tier == nil || q.Tier.Responded != 1 || q.Tier.Collectors != 2 {
		t.Fatalf("tier = %+v, want 1 of 2 responded", q.Tier)
	}
	if len(q.Tier.Peers) != 1 || q.Tier.Peers[0].OK || q.Tier.Peers[0].Error == "" {
		t.Fatalf("peer status = %+v, want a reported failure", q.Tier.Peers)
	}
	// Local data still served.
	if q.UniqueIPs != 4 || len(q.Records) != 4 {
		t.Fatalf("local degradation: unique=%d records=%d, want 4/4", q.UniqueIPs, len(q.Records))
	}
	if fi.Status().(map[string]any)["peer_errors"].(uint64) == 0 {
		t.Fatal("peer error not counted")
	}
}

// TestFanInApproxOnTruncatedPages pins the coverage gate on overlap
// subtraction: when a collector's record page is cut by the limit, the
// pages cannot expose all cross-collector overlap, so the merged
// unique/total counts must stay the per-collector sums (an honest upper
// bound) and the response must say so via Tier.Approx — instead of
// subtracting the partially-visible overlap and presenting the result
// as exact.
func TestFanInApproxOnTruncatedPages(t *testing.T) {
	// Local covers sources 0..3, the peer 3..7: one overlapping source
	// (true tier-wide unique count: 8).
	local := NewQueryHandler(QueryOptions{Store: evstoreWith(t, 0, 4)})
	peerURL := startPeer(t, 0, 3, 8)
	fi := NewFanIn(FanInOptions{Local: local, Peers: []string{peerURL}, Logf: t.Logf})
	srv := NewServer(ServerOptions{Registry: NewRegistry(), Query: fi})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Full pages: every page covers its selection, the overlap is fully
	// visible, the counts are exact and NOT flagged approximate.
	full := queryJSON(t, ts, "limit=100")
	if full.Tier == nil || full.Tier.Approx {
		t.Fatalf("covered pages flagged approximate: %+v", full.Tier)
	}
	if full.UniqueIPs != 8 || full.Total != 8 {
		t.Fatalf("covered merge: unique=%d total=%d, want 8/8", full.UniqueIPs, full.Total)
	}

	// limit=2 truncates both pages (local holds 4 records, the peer 5).
	// The overlapping source is invisible in the fetched pages, so any
	// subtraction would be fiction: the counts must stay the sums (4+5)
	// and be flagged.
	cut := queryJSON(t, ts, "limit=2")
	if cut.Tier == nil || !cut.Tier.Approx {
		t.Fatalf("truncated pages not flagged approximate: %+v", cut.Tier)
	}
	if cut.UniqueIPs != 9 || cut.Total != 9 {
		t.Fatalf("truncated merge: unique=%d total=%d, want the 9/9 upper bound", cut.UniqueIPs, cut.Total)
	}
	if len(cut.Records) != 2 {
		t.Fatalf("page size = %d, want 2", len(cut.Records))
	}
}

// TestFanInApproxOnPeerFailure: a peer that never answered means a
// slice of the tier is missing, which also makes the merged counts
// not-exact — the flag must say so.
func TestFanInApproxOnPeerFailure(t *testing.T) {
	local := NewQueryHandler(QueryOptions{Store: evstoreWith(t, 0, 4)})
	fi := NewFanIn(FanInOptions{
		Local:   local,
		Peers:   []string{"127.0.0.1:1"},
		Timeout: time.Second,
		Logf:    t.Logf,
	})
	srv := NewServer(ServerOptions{Registry: NewRegistry(), Query: fi})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if q := queryJSON(t, ts, ""); q.Tier == nil || !q.Tier.Approx {
		t.Fatalf("dead peer not flagged approximate: %+v", q.Tier)
	}
}
