package stream

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"decoydb/internal/classify"
	"decoydb/internal/cluster"
	"decoydb/internal/core"
)

var t0 = time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)

// src is source i's address: 203.0.113.i while i < 256, then on into
// 203.0.114.0 and up, so the bound tests can open maxSources+1 of them.
func src(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, byte(i >> 16), 113 + byte(i>>8), byte(i)}), 40000)
}

func ev(i int, kind core.EventKind, dbms, cmd string, at time.Duration) core.Event {
	return core.Event{
		Time:     t0.Add(at),
		Src:      src(i),
		Honeypot: core.Info{DBMS: dbms, Level: core.Low},
		Kind:     kind,
		Command:  cmd,
	}
}

func TestEscalationAlert(t *testing.T) {
	a := New(Options{})
	// A source connects, scouts, then strikes: the transition to
	// exploiting must emit exactly one escalation alert.
	batch := []core.Event{
		ev(1, core.EventConnect, core.Redis, "", 0),
		ev(1, core.EventCommand, core.Redis, "INFO", time.Second),
		ev(1, core.EventCommand, core.Redis, "KEYS", 2*time.Second),
	}
	if err := a.RecordBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Verdict(src(1).Addr()); got != classify.Scouting {
		t.Fatalf("after scouting: verdict = %v, want scouting", got)
	}
	if n := a.Stats().Escalations; n != 0 {
		t.Fatalf("escalations before exploit = %d, want 0", n)
	}

	strike := ev(1, core.EventCommand, core.Redis, "MODULE LOAD", 3*time.Second)
	if err := a.RecordBatch([]core.Event{strike}); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Verdict(src(1).Addr()); got != classify.Exploiting {
		t.Fatalf("after exploit: verdict = %v, want exploiting", got)
	}
	alerts := a.Alerts(0)
	var esc []Alert
	for _, al := range alerts {
		if al.Kind == EscalationAlert {
			esc = append(esc, al)
		}
	}
	if len(esc) != 1 {
		t.Fatalf("escalation alerts = %d, want 1 (%v)", len(esc), alerts)
	}
	al := esc[0]
	if al.Src != src(1).Addr().String() || al.From != "scouting" || al.To != "exploiting" ||
		al.Action != "MODULE LOAD" || al.DBMS != core.Redis {
		t.Fatalf("escalation alert = %+v", al)
	}
	if !al.Time.Equal(strike.Time) {
		t.Fatalf("alert time = %v, want triggering event time %v", al.Time, strike.Time)
	}

	// Staying at exploiting must not re-alert.
	if err := a.RecordBatch([]core.Event{ev(1, core.EventCommand, core.Redis, "FLUSHALL", 4*time.Second)}); err != nil {
		t.Fatal(err)
	}
	if n := a.Stats().Escalations; n != 1 {
		t.Fatalf("escalations after second exploit = %d, want 1", n)
	}
}

func TestLoginCountsAsScouting(t *testing.T) {
	a := New(Options{})
	e := ev(2, core.EventLogin, core.MySQL, "", 0)
	e.User, e.Pass = "root", "root"
	a.Record(e)
	if got, ok := a.Verdict(src(2).Addr()); !ok || got != classify.Scouting {
		t.Fatalf("verdict after login = %v ok=%v, want scouting", got, ok)
	}
}

func TestLRUBound(t *testing.T) {
	a := New(Options{})
	last := maxSources + 12
	for i := 1; i <= last; i++ {
		a.Record(ev(i, core.EventCommand, core.Redis, "INFO", time.Duration(i)*time.Second))
	}
	st := a.Stats()
	if st.Sources != maxSources {
		t.Fatalf("sources = %d, want %d", st.Sources, maxSources)
	}
	if st.Evicted != 12 {
		t.Fatalf("evicted = %d, want 12", st.Evicted)
	}
	// The oldest sources are gone, the newest retained.
	if _, ok := a.Verdict(src(1).Addr()); ok {
		t.Fatal("source 1 should have been evicted")
	}
	if _, ok := a.Verdict(src(last).Addr()); !ok {
		t.Fatalf("source %d should be tracked", last)
	}
	// Re-touching the oldest retained source keeps it alive through
	// churn; the next oldest goes in its place.
	a.Record(ev(13, core.EventCommand, core.Redis, "KEYS", time.Duration(last+1)*time.Second))
	for i := last + 1; i < last+8; i++ {
		a.Record(ev(i, core.EventCommand, core.Redis, "INFO", time.Duration(i+1)*time.Second))
	}
	if _, ok := a.Verdict(src(13).Addr()); !ok {
		t.Fatal("recently touched source 13 should survive churn")
	}
	if _, ok := a.Verdict(src(14).Addr()); ok {
		t.Fatal("source 14, now the least recently active, should have been evicted")
	}
}

// TestEvictionInsideBatchReleasesMembership: a batch with more distinct
// sources than maxSources evicts sources it already touched. They must
// not be assigned when the batch settles, or a centroid counts members
// that no live source holds.
func TestEvictionInsideBatchReleasesMembership(t *testing.T) {
	a := New(Options{})
	var batch []core.Event
	for i := 1; i <= maxSources+2; i++ {
		batch = append(batch, ev(i, core.EventCommand, core.Redis, "INFO", time.Duration(i)*time.Second))
	}
	if err := a.RecordBatch(batch); err != nil {
		t.Fatal(err)
	}
	members := 0
	for _, c := range a.Clusters() {
		members += c.Members
	}
	if st := a.Stats(); members != st.Sources || st.Sources != maxSources || st.Evicted != 2 {
		t.Fatalf("cluster members = %d, sources = %d, evicted = %d; want %d members of %d live sources, 2 evicted",
			members, st.Sources, st.Evicted, maxSources, maxSources)
	}
}

func TestNewClusterAndShiftAlerts(t *testing.T) {
	a := New(Options{})
	// First source: pure scout vector seeds cluster 0.
	if err := a.RecordBatch([]core.Event{
		ev(1, core.EventCommand, core.Redis, "INFO", 0),
		ev(1, core.EventCommand, core.Redis, "KEYS", time.Second),
	}); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Clusters != 1 || st.NewClusters != 1 {
		t.Fatalf("after first source: clusters=%d new-cluster alerts=%d, want 1/1", st.Clusters, st.NewClusters)
	}
	// Second source with a disjoint exploit vector seeds cluster 1.
	if err := a.RecordBatch([]core.Event{
		ev(2, core.EventCommand, core.Redis, "SLAVEOF", 2*time.Second),
		ev(2, core.EventCommand, core.Redis, "MODULE LOAD", 3*time.Second),
	}); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Clusters != 2 {
		t.Fatalf("clusters = %d, want 2", st.Clusters)
	}
	// Source 1 now pivots: a long exploit tail drags its vector to the
	// exploit cluster — that migration must emit a shift alert.
	var pivot []core.Event
	for i := 0; i < 30; i++ {
		pivot = append(pivot, ev(1, core.EventCommand, core.Redis, "SLAVEOF", time.Duration(10+i)*time.Second))
		pivot = append(pivot, ev(1, core.EventCommand, core.Redis, "MODULE LOAD", time.Duration(11+i)*time.Second))
	}
	if err := a.RecordBatch(pivot); err != nil {
		t.Fatal(err)
	}
	got, ok := a.Cluster(src(1).Addr())
	if !ok {
		t.Fatal("source 1 lost its assignment")
	}
	c2, _ := a.Cluster(src(2).Addr())
	if got != c2 {
		t.Fatalf("source 1 in cluster %d, want exploit cluster %d", got, c2)
	}
	if st := a.Stats(); st.Shifts == 0 {
		t.Fatal("no cluster-shift alert after migration")
	}
	var shift *Alert
	for _, al := range a.Alerts(0) {
		if al.Kind == ClusterShiftAlert {
			shift = &al
			break
		}
	}
	if shift == nil || shift.Src != src(1).Addr().String() {
		t.Fatalf("shift alert = %+v", shift)
	}
}

// TestOnlineOfflineAgreement feeds a stable corpus with three
// well-separated behaviour groups through the analyzer and checks the
// online partition matches the offline cluster.Run partition: sources
// co-clustered online iff co-clustered offline.
func TestOnlineOfflineAgreement(t *testing.T) {
	groups := [][]string{
		{"INFO", "KEYS", "INFO", "CONFIG GET", "DBSIZE"},                      // scouts
		{"SLAVEOF", "CONFIG SET dir", "CONFIG SET dbfilename", "MODULE LOAD"}, // rogue-master chain
		{"SET", "SET", "SET", "SET", "GET"},                                   // payload stagers
	}
	const perGroup = 6
	var seqs []cluster.Sequence
	a := New(Options{})
	id := 0
	for gi, actions := range groups {
		for k := 0; k < perGroup; k++ {
			id++
			seqs = append(seqs, cluster.Sequence{ID: src(id).Addr().String(), Actions: actions})
			var batch []core.Event
			for j, act := range actions {
				batch = append(batch, ev(id, core.EventCommand, core.Redis, act,
					time.Duration(gi*1000+k*100+j)*time.Second))
			}
			if err := a.RecordBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}

	off := cluster.Run(seqs, 0.25) // same squared-distance cut as the online radius 0.5
	onLabel := make([]int, len(seqs))
	for i := range seqs {
		c, ok := a.Cluster(src(i + 1).Addr())
		if !ok {
			t.Fatalf("source %d unassigned online", i+1)
		}
		onLabel[i] = c
	}
	for i := range seqs {
		for j := i + 1; j < len(seqs); j++ {
			offTogether := off.Labels[i] == off.Labels[j]
			onTogether := onLabel[i] == onLabel[j]
			if offTogether != onTogether {
				t.Errorf("sources %s/%s: offline together=%v online together=%v",
					seqs[i].ID, seqs[j].ID, offTogether, onTogether)
			}
		}
	}
	if st := a.Stats(); st.Clusters != off.Clusters {
		t.Fatalf("online clusters = %d, offline = %d", st.Clusters, off.Clusters)
	}
}

// TestRefitMergesFragments drives two near-identical behaviour streams
// that seed separate centroids (via an ordering artefact) and checks the
// periodic Ward re-fit consolidates them.
func TestRefitMergesFragments(t *testing.T) {
	a := New(Options{})
	// Two sources, same behaviour, but the first batch of each arrives
	// with only a prefix of the vector — enough skew to seed two
	// centroids before both converge to the same TF profile.
	s1 := []string{"INFO", "KEYS", "DBSIZE", "CONFIG GET"}
	s2 := []string{"CONFIG GET", "DBSIZE", "KEYS", "INFO"}
	at := 0
	push := func(id int, acts []string) {
		var batch []core.Event
		for _, act := range acts {
			at++
			batch = append(batch, ev(id, core.EventCommand, core.Redis, act, time.Duration(at)*time.Second))
		}
		if err := a.RecordBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	push(1, s1[:1]) // vector {INFO:1} — seeds centroid A
	push(2, s2[:1]) // vector {CONFIG GET:1} — distance √2 from A, seeds B
	if st := a.Stats(); st.Clusters != 2 {
		t.Fatalf("pre-merge clusters = %d, want 2", st.Clusters)
	}
	// Both converge onto the full profile; refits fire every refitEvery
	// batches, so this runs two.
	for i := 0; i < refitEvery; i++ {
		push(1, s1)
		push(2, s2)
	}
	st := a.Stats()
	if st.Refits == 0 {
		t.Fatal("refit never ran")
	}
	if st.Clusters != 1 {
		t.Fatalf("post-refit clusters = %d, want 1 (merged=%d)", st.Clusters, st.Merged)
	}
	c1, _ := a.Cluster(src(1).Addr())
	c2, _ := a.Cluster(src(2).Addr())
	if c1 != c2 {
		t.Fatalf("sources still split across clusters %d/%d after refit", c1, c2)
	}
	if got := a.Clusters(); len(got) != 1 || got[0].Members != 2 {
		t.Fatalf("cluster info after merge = %+v", got)
	}
}

func TestClustersRanking(t *testing.T) {
	a := New(Options{})
	for i := 1; i <= 5; i++ { // five scouts
		a.Record(ev(i, core.EventCommand, core.Redis, "INFO", time.Duration(i)*time.Second))
	}
	for i := 6; i <= 7; i++ { // two exploiters
		a.Record(ev(i, core.EventCommand, core.Redis, "SLAVEOF", time.Duration(i)*time.Second))
	}
	cs := a.Clusters()
	if len(cs) != 2 {
		t.Fatalf("clusters = %d, want 2", len(cs))
	}
	if cs[0].Members != 5 || cs[1].Members != 2 {
		t.Fatalf("ranking wrong: %+v", cs)
	}
	if len(cs[0].TopActions) == 0 || cs[0].TopActions[0] != "INFO" {
		t.Fatalf("top actions of scout cluster = %v", cs[0].TopActions)
	}
	if cs[1].TopActions[0] != "SLAVEOF" {
		t.Fatalf("top actions of exploit cluster = %v", cs[1].TopActions)
	}
}

func TestAlertRingBound(t *testing.T) {
	a := New(Options{})
	// Every source strikes at once → one escalation alert each (the
	// first also seeds the one cluster they all share); the ring
	// retains only the newest maxAlerts.
	last := maxAlerts + 10
	for i := 1; i <= last; i++ {
		a.Record(ev(i, core.EventCommand, core.Redis, "MODULE LOAD", time.Duration(i)*time.Second))
	}
	alerts := a.Alerts(0)
	if len(alerts) != maxAlerts {
		t.Fatalf("retained alerts = %d, want %d", len(alerts), maxAlerts)
	}
	// Newest first.
	for i, al := range alerts {
		if want := src(last - i).Addr().String(); al.Src != want || al.Kind != EscalationAlert {
			t.Fatalf("alert %d = %s from %s, want an escalation from %s", i, al.Kind, al.Src, want)
		}
	}
	if got := a.Alerts(2); len(got) != 2 || got[0].Src != src(last).Addr().String() {
		t.Fatalf("Alerts(2) = %+v", got)
	}
	if st := a.Stats(); st.Alerts != uint64(last+1) {
		t.Fatalf("lifetime alerts = %d, want %d", st.Alerts, last+1)
	}
}

func TestMaxClustersCap(t *testing.T) {
	a := New(Options{})
	// Every source gets its own action, √2 from every other vector and
	// so past clusterRadius: each would seed a cluster of its own.
	last := maxClusters + 10
	for i := 1; i <= last; i++ {
		a.Record(ev(i, core.EventCommand, core.Redis, fmt.Sprintf("ACT-%d", i), time.Duration(i)*time.Second))
	}
	st := a.Stats()
	if st.Clusters != maxClusters {
		t.Fatalf("clusters = %d, want cap %d", st.Clusters, maxClusters)
	}
	if st.Capped == 0 {
		t.Fatal("capped counter never incremented")
	}
	// Every source still has a home.
	for i := 1; i <= last; i++ {
		if _, ok := a.Cluster(src(i).Addr()); !ok {
			t.Fatalf("source %d unassigned at cluster cap", i)
		}
	}
}

func TestVocabOverflow(t *testing.T) {
	a := New(Options{})
	// A source counts at most maxActionsPerSource actions, so the
	// distinct actions come from several sources, 4x maxVocab in all.
	var batch []core.Event
	for i := 0; i < 4*maxVocab; i++ {
		id := 1 + i/maxActionsPerSource
		batch = append(batch, ev(id, core.EventCommand, core.Redis, fmt.Sprintf("ACT-%d", i), time.Duration(i)*time.Second))
	}
	if err := a.RecordBatch(batch); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Vocab != maxVocab {
		t.Fatalf("vocab = %d, want bounded at %d", st.Vocab, maxVocab)
	}
}

func TestAlertKindJSONRoundTrip(t *testing.T) {
	for _, k := range []AlertKind{EscalationAlert, NewClusterAlert, ClusterShiftAlert} {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var got AlertKind
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Fatalf("round trip %v -> %s -> %v", k, b, got)
		}
	}
	var bad AlertKind
	if err := json.Unmarshal([]byte(`"nope"`), &bad); err == nil {
		t.Fatal("unknown kind decoded without error")
	}
}

func TestAlertJSONRoundTrip(t *testing.T) {
	in := Alert{Kind: EscalationAlert, Time: t0, Src: "203.0.113.1",
		DBMS: core.Redis, From: "scouting", To: "exploiting", Action: "EVAL"}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Alert
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
}

func TestConcurrentIngest(t *testing.T) {
	a := New(Options{})
	// Fill the LRU with other sources first, so the 100 sources below
	// evict while they are ingested concurrently.
	var fill []core.Event
	for i := 0; i < maxSources; i++ {
		fill = append(fill, ev(101+i, core.EventCommand, core.Redis, "INFO", 0))
	}
	if err := a.RecordBatch(fill); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				id := (w*200+i)%100 + 1
				a.Record(ev(id, core.EventCommand, core.Redis, "INFO", time.Duration(i)*time.Second))
				if i%10 == 0 {
					a.Stats()
					a.Alerts(4)
					a.Clusters()
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	a.Flush()
	if st := a.Stats(); st.Events != maxSources+800 || st.Evicted < 100 {
		t.Fatalf("events = %d, evicted = %d; want %d events and at least 100 evicted", st.Events, st.Evicted, maxSources+800)
	}
}
