package obs

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"decoydb/internal/report"
)

// TestCaptureTablesLocalMatchesClient: dbcollect's exit dump and
// dbreport -store render a local Respond, dbreport -live the same query
// fetched over HTTP. Both must print the same capture.
func TestCaptureTablesLocalMatchesClient(t *testing.T) {
	store := testStore(t, 9)
	h := NewQueryHandler(QueryOptions{Store: store})
	ts := httptest.NewServer(NewServer(ServerOptions{Registry: NewRegistry(), Query: h}).Handler())
	defer ts.Close()

	req := QueryRequest{Creds: 10, Limit: 4}
	local, err := h.Respond(req)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := NewClient(ts.URL, 5*time.Second).Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	byTitle := func(tables []*report.Table) map[string]*report.Table {
		m := map[string]*report.Table{}
		for _, tb := range tables {
			m[tb.Title] = tb
		}
		return m
	}
	lt, rt := byTitle(CaptureTables(nil, &local)), byTitle(CaptureTables(nil, remote))
	for _, title := range []string{"Capture", "Top credentials", "Top sources"} {
		l, r := lt[title], rt[title]
		if l == nil || r == nil {
			t.Fatalf("%s table: local %v, remote %v", title, l != nil, r != nil)
		}
		if !reflect.DeepEqual(l.Rows, r.Rows) {
			t.Fatalf("%s rows differ:\nlocal  %q\nremote %q", title, l.Rows, r.Rows)
		}
	}
	if got, want := lt["Capture"].Rows[0], []string{"events ingested", fmt.Sprint(store.Events())}; !reflect.DeepEqual(got, want) {
		t.Fatalf("capture row %q, want %q", got, want)
	}
	if n := len(lt["Top credentials"].Rows); n != 2 {
		t.Fatalf("%d credential rows, want 2", n)
	}
}
