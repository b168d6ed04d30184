package main

import (
	"bytes"
	"net/netip"
	"path/filepath"
	"strings"
	"testing"
)

// A hand-built trace: one session whose handler and Close record nest in
// it, with overlapping children; bus deliveries as roots; a wait that must
// never become anyone's parent.
func sampleSpans() []span {
	a := netip.MustParseAddrPort("127.100.0.1:4000")
	b := netip.MustParseAddrPort("127.100.0.2:4001")
	return []span{
		{Name: "loadgen.session", Trace: a, Start: 0, End: 100},
		{Name: "handler.mssql", Trace: a, Start: 10, End: 60},
		{Name: "bus.record", Trace: a, Start: 20, End: 30}, // inside the handler
		{Name: "bus.record", Trace: a, Start: 50, End: 70}, // overlaps the handler's end
		{Name: "wait.bus.queue", Trace: a, Start: 55, End: 90},
		{Name: "pipeline", Start: 5, End: 15, Events: 3}, // batch delivery: a root
		{Name: "relay.forward", Start: 12, End: 40, Events: 3},
		{Name: "loadgen.session", Trace: b, Start: 30, End: 50}, // another session, same times
		{Name: "handler.mysql", Trace: b, Start: 35, End: 45},
	}
}

func TestLinkSpansAndSelfTime(t *testing.T) {
	spans := linkSpans(sampleSpans())
	wantParent := []int{0, 1, 2, 1, 0, 0, 0, 0, 8}
	for i, s := range spans {
		if s.ID != i+1 || s.Parent != wantParent[i] {
			t.Errorf("span %d %s: id %d parent %d, want id %d parent %d", i, s.Name, s.ID, s.Parent, i+1, wantParent[i])
		}
	}
	// The session's children cover [10,60] and [50,70]: 60 of its 100.
	wantSelf := []int64{40, 40, 10, 20, 35, 10, 28, 10, 10}
	for i, got := range selfTimes(spans) {
		if got != wantSelf[i] {
			t.Errorf("span %d %s: self %d, want %d", i, spans[i].Name, got, wantSelf[i])
		}
	}
	rows := map[string]*layerTime{}
	for _, r := range summarizeSpans(spans) {
		rows[r.Name] = r
	}
	if r := rows["bus.record"]; r.Count != 2 || r.Busy != 30 || r.Self != 30 {
		t.Errorf("bus.record row %+v, want 2 spans, 30 busy, 30 self", *r)
	}
	if r := rows["loadgen.session"]; r.Busy != 120 || r.Self != 50 {
		t.Errorf("loadgen.session row busy %d self %d, want 120 and 50", r.Busy, r.Self)
	}
	if r := rows["pipeline"]; r.Events != 3 {
		t.Errorf("pipeline row carries %d events, want 3", r.Events)
	}
}

func TestSpansFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	spans := linkSpans(sampleSpans())
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := summarize(&out, path); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"9 spans", "loadgen.session", "wait.bus.queue", "relay.forward"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
}

func TestPairInOrder(t *testing.T) {
	a := netip.MustParseAddrPort("127.100.0.1:4000")
	b := netip.MustParseAddrPort("127.100.0.2:4000")
	// Port 4000 of a is reused by a second session; its commits arrive in
	// order, the second before b's.
	from := []stamp{{src: a, at: 30, ref: 2}, {src: a, at: 10, ref: 1}, {src: b, at: 20, ref: 3}, {src: b, at: 40, ref: 4}}
	to := []stamp{{src: a, at: 12}, {src: a, at: 35}, {src: b, at: 25}}
	pairs, unmatched := pairInOrder(from, to)
	got := map[int]int64{}
	for _, p := range pairs {
		got[p.ref] = p.to - p.from
	}
	if len(got) != 3 || got[1] != 2 || got[2] != 5 || got[3] != 5 {
		t.Errorf("pairs %v, want ref 1→2, 2→5, 3→5", got)
	}
	if len(unmatched) != 1 || unmatched[0].ref != 4 {
		t.Errorf("unmatched %v, want ref 4", unmatched)
	}
}
