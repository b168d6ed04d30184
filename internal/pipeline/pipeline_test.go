package pipeline

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/geoip"
)

var start = core.ExperimentStart

func lowEvent(addr string, kind core.EventKind, user, pass string) core.Event {
	return core.Event{
		Time: start.Add(5 * time.Hour),
		Src:  netip.AddrPortFrom(netip.MustParseAddr(addr), 4000),
		Honeypot: core.Info{
			DBMS: core.MSSQL, Level: core.Low, Port: 1433,
			Instance: 3, Config: core.ConfigDefault, Group: core.GroupMulti, VM: "lo-multi-03",
		},
		Kind: kind, User: user, Pass: pass,
	}
}

func medEvent(addr string, kind core.EventKind, cmd, raw string) core.Event {
	return core.Event{
		Time: start.Add(30 * time.Hour),
		Src:  netip.AddrPortFrom(netip.MustParseAddr(addr), 5000),
		Honeypot: core.Info{
			DBMS: core.Redis, Level: core.Medium, Port: 6379,
			Instance: 1, Config: core.ConfigFakeData, Group: core.GroupMedium,
		},
		Kind: kind, Command: cmd, Raw: raw,
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	lw, err := NewLogWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Use an address inside the default GeoIP plan so enrichment kicks in.
	alloc := geoip.Default().ByASN(4134)[0]
	b := alloc.Prefix.Addr().As4()
	cnAddr := netip.AddrFrom4([4]byte{b[0], b[1], 7, 7}).String()

	lw.Record(lowEvent(cnAddr, core.EventConnect, "", ""))
	lw.Record(lowEvent(cnAddr, core.EventLogin, "sa", "123"))
	lw.Record(lowEvent(cnAddr, core.EventClose, "", ""))
	lw.Record(medEvent("20.0.77.1", core.EventConnect, "", ""))
	lw.Record(medEvent("20.0.77.1", core.EventCommand, "SLAVEOF", "SLAVEOF 1.2.3.4 8080"))
	lw.Record(medEvent("20.0.77.1", core.EventClose, "", ""))
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}

	// Files exist per (dbms, group, config).
	files, _ := os.ReadDir(dir)
	if len(files) != 2 {
		t.Fatalf("log files = %d", len(files))
	}

	store, err := Load(dir, start, 20, geoip.Default())
	if err != nil {
		t.Fatal(err)
	}
	if store.Events() != 6 {
		t.Fatalf("events = %d", store.Events())
	}
	rec := store.Snapshot().IP(netip.MustParseAddr(cnAddr))
	if rec == nil {
		t.Fatal("low-tier source missing")
	}
	if rec.Country != "CN" || rec.ASName != "Chinanet" {
		t.Fatalf("enrichment = %+v", rec)
	}
	if rec.TotalLogins() != 1 {
		t.Fatalf("logins = %d", rec.TotalLogins())
	}
	creds := store.Snapshot().Creds(evstore.Query{DBMS: core.MSSQL}, 0)
	if len(creds) != 1 || creds[0].User != "sa" || creds[0].Pass != "123" {
		t.Fatalf("creds = %v", creds)
	}

	med := store.Snapshot().IP(netip.MustParseAddr("20.0.77.1"))
	if med == nil {
		t.Fatal("medium-tier source missing")
	}
	var sawSlaveof bool
	for k, a := range med.Per {
		if k.DBMS == core.Redis && k.Level == core.Medium && k.Config == core.ConfigFakeData {
			for _, act := range a.Actions {
				if act.Name == "SLAVEOF" && act.Raw == "SLAVEOF 1.2.3.4 8080" {
					sawSlaveof = true
				}
			}
		}
	}
	if !sawSlaveof {
		t.Fatal("command lost in round trip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{not json}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, start, 20, nil); err == nil {
		t.Fatal("garbage log accepted")
	}
}

func TestLoadSkipsNonJSON(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("notes"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := Load(dir, start, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if store.Events() != 0 {
		t.Fatal("events from non-JSON file")
	}
}

func TestUnknownActionRejected(t *testing.T) {
	dir := t.TempDir()
	line := `{"timestamp":"2024-03-22T01:00:00Z","action":"explode","src_ip":"1.2.3.4","server":"mysql"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "x.json"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, start, 20, nil); err == nil {
		t.Fatal("unknown action accepted")
	}
}

func TestBadLevelRejected(t *testing.T) {
	dir := t.TempDir()
	line := `{"time":"2024-03-22T01:00:00Z","addr":"1.2.3.4:55","event":"connect","dbms":"redis","level":"ultra","config":"default","group":"medium"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "x.json"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, start, 20, nil); err == nil {
		t.Fatal("unknown level accepted")
	}
}

func TestBadEventRejected(t *testing.T) {
	dir := t.TempDir()
	line := `{"time":"2024-03-22T01:00:00Z","addr":"1.2.3.4:55","event":"explode","dbms":"redis","level":"medium","config":"default","group":"medium"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "x.json"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, start, 20, nil); err == nil {
		t.Fatal("unknown event accepted")
	}
}

func TestBadAddressRejected(t *testing.T) {
	dir := t.TempDir()
	line := `{"time":"2024-03-22T01:00:00Z","addr":"not-an-addr","event":"connect","dbms":"redis","level":"medium","config":"default","group":"medium"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "x.json"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, start, 20, nil); err == nil {
		t.Fatal("unparseable address accepted")
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load("/nonexistent-dir-xyz", start, 20, nil); err == nil {
		t.Fatal("missing directory accepted")
	}
}

func TestLogWriterAllLevelsRoundTrip(t *testing.T) {
	// A high-interaction mongo event with every field set survives the
	// session-record format.
	dir := t.TempDir()
	lw, err := NewLogWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := core.Event{
		Time: start.Add(90 * time.Hour),
		Src:  netip.AddrPortFrom(netip.MustParseAddr("20.1.2.3"), 999),
		Honeypot: core.Info{
			DBMS: core.MongoDB, Level: core.High, Port: 27017,
			Instance: 2, Config: core.ConfigFakeData, Group: core.GroupHigh, Region: "SG",
		},
		Kind: core.EventLogin, User: "u", Pass: "p", OK: true,
	}
	lw.Record(e)
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	store, err := Load(dir, start, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := store.Snapshot().IP(netip.MustParseAddr("20.1.2.3"))
	if rec == nil {
		t.Fatal("record missing")
	}
	for k, a := range rec.Per {
		if k.Level != core.High || k.Config != core.ConfigFakeData || a.LoginOK != 1 {
			t.Fatalf("round trip lost fields: %+v %+v", k, a)
		}
	}
}

func TestRecordBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	lw, err := NewLogWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	batch := []core.Event{
		lowEvent("203.0.113.9", core.EventConnect, "", ""),
		lowEvent("203.0.113.9", core.EventLogin, "sa", "123"),
		medEvent("20.0.77.2", core.EventConnect, "", ""),
		medEvent("20.0.77.2", core.EventCommand, "KEYS", "KEYS *"),
	}
	if err := lw.RecordBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Batch delivery flushes each touched file, so the lines are on
	// disk before Close — the durability property the bus relies on.
	store0, err := Load(dir, start, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if store0.Events() != int64(len(batch)) {
		t.Fatalf("events on disk before Close = %d, want %d", store0.Events(), len(batch))
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	if n := lw.ErrCount(); n != 0 {
		t.Fatalf("failures = %d", n)
	}
}

// TestRecordOnDiskBeforeClose: Record is a batch of one, so its line is
// in the file when Record returns, as a batch's lines are.
func TestRecordOnDiskBeforeClose(t *testing.T) {
	dir := t.TempDir()
	lw, err := NewLogWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	lw.Record(medEvent("20.0.77.3", core.EventCommand, "KEYS", "KEYS *"))
	store, err := Load(dir, start, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := store.Events(); n != 1 {
		t.Fatalf("events on disk after Record = %d, want 1", n)
	}
}

// TestRecordBatchAllocatesOnlyLines: once its files exist, a batch
// allocates what encoding its lines does and nothing more. Finding an
// event's file formats no name, and the batch keeps no table of the
// files it touched. The names stay as they were.
func TestRecordBatchAllocatesOnlyLines(t *testing.T) {
	dir := t.TempDir()
	lw, err := NewLogWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	low, med := lowEvent("203.0.113.9", core.EventLogin, "sa", "123"), medEvent("20.0.77.2", core.EventCommand, "KEYS", "KEYS *")
	batch := []core.Event{low, med, low}
	if err := lw.RecordBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mssql_multi_default.json", "redis_medium_fakedata.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("log file %s: %v", name, err)
		}
	}
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so json.Marshal's allocations vary")
	}
	lines := testing.AllocsPerRun(100, func() {
		for _, line := range []any{toQeeqbox(low), toSession(med), toQeeqbox(low)} {
			if _, err := json.Marshal(line); err != nil {
				t.Fatal(err)
			}
		}
	})
	got := testing.AllocsPerRun(100, func() {
		if err := lw.RecordBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if got != lines {
		t.Fatalf("a batch of %d events allocates %v times, its lines %v", len(batch), got, lines)
	}
}

func TestWriteErrorsCountedAndSurfaced(t *testing.T) {
	dir := t.TempDir()
	lw, err := NewLogWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the directory so new log files cannot be created.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	lw.Record(lowEvent("203.0.113.9", core.EventConnect, "", ""))
	if lw.Err() == nil {
		t.Fatal("write error swallowed")
	}
	if lw.ErrCount() != 1 {
		t.Fatalf("failures = %d, want 1", lw.ErrCount())
	}
	if err := lw.RecordBatch([]core.Event{
		lowEvent("203.0.113.9", core.EventLogin, "sa", "1"),
		lowEvent("203.0.113.9", core.EventClose, "", ""),
	}); err == nil {
		t.Fatal("RecordBatch did not return the write error")
	}
	if lw.ErrCount() != 3 {
		t.Fatalf("failures = %d, want 3", lw.ErrCount())
	}
	if err := lw.Close(); err == nil {
		t.Fatal("Close did not surface the first write error")
	}
}

// writeLogins logs n logins through a fresh LogWriter over dir and
// closes it, as one run of a farm would.
func writeLogins(t *testing.T, dir string, n int) {
	t.Helper()
	lw, err := NewLogWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		lw.Record(lowEvent("203.0.113.9", core.EventLogin, "sa", strconv.Itoa(i)))
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
}

// Regression: a LogWriter created its files afresh, so a farm restarted
// over the same directory kept only the new run.
func TestLogWriterReopenAppends(t *testing.T) {
	dir := t.TempDir()
	writeLogins(t, dir, 5)
	writeLogins(t, dir, 3)
	store, err := Load(dir, start, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if store.Events() != 8 {
		t.Fatalf("loaded %d events after a restart, want 5+3", store.Events())
	}
}

// A file that ends in half a line keeps its whole lines, and the next
// run's lines follow them intact.
func TestLogWriterCutsTornTail(t *testing.T) {
	dir := t.TempDir()
	writeLogins(t, dir, 5)
	path := filepath.Join(dir, "mssql_multi_default.json")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"timestamp":"2024-03-22T05:00:00Z","action":"log`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	writeLogins(t, dir, 3)
	store, err := Load(dir, start, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if store.Events() != 8 {
		t.Fatalf("loaded %d events, want the 5 whole lines plus 3 appended", store.Events())
	}
}

// TestBinaryFieldsRoundTrip: attacker-supplied fields holding any bytes,
// not only UTF-8, read back as written in both line formats, and a line
// whose fields are all UTF-8 stays plain JSON, with no base64 key.
func TestBinaryFieldsRoundTrip(t *testing.T) {
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	tls := "\x16\x03\x01\x00\xe0\xff\x00\x01"
	login := medEvent("20.0.77.2", core.EventLogin, "", "")
	login.User, login.Pass = "\x80", string(every[128:])
	cmd := lowEvent("203.0.113.9", core.EventCommand, "", "")
	cmd.Command, cmd.Raw = tls, "\xc3\x28"
	cases := []struct {
		e      core.Event
		binary bool
	}{
		{lowEvent("203.0.113.9", core.EventLogin, "sa\xff", string(every)), true},
		{cmd, true},
		{lowEvent("203.0.113.9", core.EventLogin, "sa", "pässwörd"), false},
		{medEvent("20.0.77.2", core.EventCommand, "RAW", tls), true},
		{medEvent("20.0.77.2", core.EventCommand, string(every), "\xed\xa0\x80"), true},
		{medEvent("20.0.77.2", core.EventCommand, "KEYS", "KEYS *"), false},
		{login, true},
	}
	dir := t.TempDir()
	lw, err := NewLogWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		lw.Record(c.e)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, name := range []string{"mssql_multi_default.json", "redis_medium_fakedata.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, bytes.SplitAfter(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))...)
	}
	if len(lines) != len(cases) {
		t.Fatalf("%d lines for %d events", len(lines), len(cases))
	}
	for i, c := range cases {
		if b64 := bytes.Contains(lines[i], []byte("_b64")); b64 != c.binary {
			t.Errorf("line %q: has a base64 key = %v, want %v", lines[i], b64, c.binary)
		}
		got, err := parseLine(lines[i])
		if err != nil {
			t.Fatalf("line %q: %v", lines[i], err)
		}
		if !got.Time.Equal(c.e.Time) {
			t.Fatalf("line %q: time %v, want %v", lines[i], got.Time, c.e.Time)
		}
		got.Time = c.e.Time
		if got != c.e {
			t.Fatalf("line %q reads back as\n%#v\nwant\n%#v", lines[i], got, c.e)
		}
	}
}
