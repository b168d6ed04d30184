package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"decoydb/internal/relay"
	"decoydb/internal/wal"
)

func TestParseForwardStructured(t *testing.T) {
	cases := []struct {
		spec  string
		addrs []string
		token string
		farm  string
		block bool
	}{
		{"addrs=a:9000,token=s", []string{"a:9000"}, "s", "", false},
		{"addrs=a:9000|b:9000|c:9000,token=s", []string{"a:9000", "b:9000", "c:9000"}, "s", "", false},
		{"addrs=a:9000| b:9000 ,token=s", []string{"a:9000", "b:9000"}, "s", "", false},
		{"addr=a:9000,token=s", []string{"a:9000"}, "s", "", false},
		{"addrs=a:9000,token=s,farm=eu-1", []string{"a:9000"}, "s", "eu-1", false},
		{"addrs=a:9000,token=s,block=true", []string{"a:9000"}, "s", "", true},
		{"token=s,addrs=a:9000,block=1,farm=x", []string{"a:9000"}, "s", "x", true},
	}
	for _, c := range cases {
		got, err := ParseForward(c.spec, relay.ForwardOptions{})
		if err != nil {
			t.Errorf("ParseForward(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got.Addrs, c.addrs) || got.Token != c.token || got.Farm != c.farm || got.Block != c.block {
			t.Errorf("ParseForward(%q) = addrs=%v token=%q farm=%q block=%v, want addrs=%v token=%q farm=%q block=%v",
				c.spec, got.Addrs, got.Token, got.Farm, got.Block, c.addrs, c.token, c.farm, c.block)
		}
	}
}

func TestParseForwardBasePreserved(t *testing.T) {
	base := relay.ForwardOptions{Farm: "preset", Block: true, FrameEvents: 99}
	got, err := ParseForward("addrs=a:9000,token=s", base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Farm != "preset" || !got.Block || got.FrameEvents != 99 {
		t.Errorf("base options clobbered: %+v", got)
	}
	// block=false must be able to override a true base.
	got, err = ParseForward("addrs=a:9000,token=s,block=false", base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Block {
		t.Error("block=false did not override base.Block")
	}
}

func TestParseForwardErrors(t *testing.T) {
	specs := []string{
		"",                                 // empty
		"collector:9000",                   // bare address
		"collector:9000,tok",               // positional host:port,token
		"collector:9000,tok,farm",          // positional host:port,token,farm
		",tok",                             // segment without a key
		"addrs=a:9000",                     // missing token
		"token=s",                          // missing addrs
		"addrs=,token=s",                   // empty value
		"addrs=a:9000,token=s,x=1",         // unknown key
		"addrs=a:9000,token=s,block",       // segment without value
		"addrs=a:9000,token=s,block=maybe", // bad bool
	}
	for _, spec := range specs {
		if _, err := ParseForward(spec, relay.ForwardOptions{}); err == nil {
			t.Errorf("ParseForward(%q): want error, got nil", spec)
		}
	}
}

func TestForwardFlagSink(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fwd := RegisterForward(fs)
	if err := fs.Parse([]string{"-forward", "addrs=127.0.0.1:1|127.0.0.1:2,token=s,farm=f"}); err != nil {
		t.Fatal(err)
	}
	if !fwd.Enabled() {
		t.Fatal("flag set but Enabled() == false")
	}
	sink, err := fwd.Sink(relay.ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	st := sink.Stats()
	if len(st.Endpoints) != 2 {
		t.Fatalf("endpoints = %d, want 2", len(st.Endpoints))
	}

	// Unset flag: no sink, no error.
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	fwd2 := RegisterForward(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if sink2, err := fwd2.Sink(relay.ForwardOptions{}); err != nil || sink2 != nil {
		t.Fatalf("unset flag: sink=%v err=%v, want nil/nil", sink2, err)
	}
}

func TestPeersFlag(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a:7070", []string{"a:7070"}},
		{"a:7070,b:7070", []string{"a:7070", "b:7070"}},
		{"a:7070|b:7070, c:7070", []string{"a:7070", "b:7070", "c:7070"}},
		{" , ", nil},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		p := RegisterPeers(fs)
		args := []string{}
		if c.in != "" {
			args = []string{"-peers", c.in}
		}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if got := p.List(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Peers(%q).List() = %v, want %v", c.in, got, c.want)
		}
		if p.Enabled() != (len(c.want) > 0) {
			t.Errorf("Peers(%q).Enabled() = %v", c.in, p.Enabled())
		}
	}
}

// TestPeersFlagRejectsDuplicates: a peer named twice would have its
// capture counted twice in the merged /query, so the flag parse refuses
// it, as -forward refuses a duplicate collector.
func TestPeersFlagRejectsDuplicates(t *testing.T) {
	for _, in := range []string{"a:7070,a:7070", "a:7070|b:7070, a:7070"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		RegisterPeers(fs)
		if err := fs.Parse([]string{"-peers", in}); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("-peers %q: err = %v, want a duplicate-address error", in, err)
		}
	}
}

func TestForwardHelpMentionsBothGrammars(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	RegisterForward(fs)
	var b strings.Builder
	fs.SetOutput(&b)
	fs.PrintDefaults()
	help := b.String()
	for _, want := range []string{"addrs=", "token="} {
		if !strings.Contains(help, want) {
			t.Errorf("-forward help %q missing %q", help, want)
		}
	}
}

// TestParseForwardRejectsDuplicateAddrs pins the satellite contract: a
// duplicated collector endpoint in addrs= is always a typo, and letting
// it through would double-weight the collector in rendezvous ranking —
// so the parser rejects it instead of deduping silently.
func TestParseForwardRejectsDuplicateAddrs(t *testing.T) {
	specs := []string{
		"addrs=a:9000|b:9000|a:9000,token=s",
		"addrs=a:9000|a:9000,token=s",
		"addrs=a:9000| a:9000,token=s", // duplicate after trimming
	}
	for _, spec := range specs {
		_, err := ParseForward(spec, relay.ForwardOptions{})
		if err == nil {
			t.Errorf("ParseForward(%q): want duplicate-address error, got nil", spec)
			continue
		}
		if !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("ParseForward(%q): err = %v, want a duplicate-address error", spec, err)
		}
	}
	// Distinct addresses still parse.
	if _, err := ParseForward("addrs=a:9000|b:9000,token=s", relay.ForwardOptions{}); err != nil {
		t.Errorf("distinct addrs rejected: %v", err)
	}
}

// TestForwardFile covers the -forward-file path: the spec is read from
// disk at Sink time, Reload re-reads it and re-ranks the live sink via
// SetEndpoints, and the mutually-exclusive / empty-file cases error.
func TestForwardFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "forward.conf")
	if err := os.WriteFile(path, []byte("addrs=127.0.0.1:1,token=s,farm=f\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fwd := RegisterForward(fs)
	if err := fs.Parse([]string{"-forward-file", path}); err != nil {
		t.Fatal(err)
	}
	if !fwd.Enabled() {
		t.Fatal("-forward-file set but Enabled() == false")
	}
	sink, err := fwd.Sink(relay.ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if st := sink.Stats(); len(st.Endpoints) != 1 || st.Endpoints[0].Addr != "127.0.0.1:1" {
		t.Fatalf("initial endpoints = %+v", st.Endpoints)
	}

	// Edit the file, reload: the sink re-ranks onto the new tier. A farm
	// or token change in the same edit is ignored with a warning, not
	// half-applied.
	if err := os.WriteFile(path, []byte("addrs=127.0.0.1:1|127.0.0.1:2,token=other,farm=g\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var warned strings.Builder
	logf := func(format string, args ...any) { fmt.Fprintf(&warned, format+"\n", args...) }
	if err := fwd.Reload(sink, relay.ForwardOptions{}, logf); err != nil {
		t.Fatal(err)
	}
	st := sink.Stats()
	if st.Reloads != 1 || len(st.Endpoints) != 2 {
		t.Fatalf("after reload: Reloads=%d endpoints=%d, want 1/2", st.Reloads, len(st.Endpoints))
	}
	if !strings.Contains(warned.String(), "farm") || !strings.Contains(warned.String(), "token") {
		t.Fatalf("farm/token change not warned about: %q", warned.String())
	}

	// A reload that parses to garbage errors and leaves the sink alone.
	if err := os.WriteFile(path, []byte("addrs=a:1|a:1,token=s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fwd.Reload(sink, relay.ForwardOptions{}, nil); err == nil {
		t.Fatal("reload of a bad spec did not error")
	}
	if st := sink.Stats(); st.Reloads != 1 {
		t.Fatalf("failed reload still re-ranked (Reloads=%d)", st.Reloads)
	}

	// Reload with no sink (forwarding disabled) is a no-op.
	if err := fwd.Reload(nil, relay.ForwardOptions{}, nil); err != nil {
		t.Fatalf("nil-sink reload: %v", err)
	}

	// Both flags together is a configuration error.
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	fwd2 := RegisterForward(fs2)
	if err := fs2.Parse([]string{"-forward", "addrs=a:1,token=s", "-forward-file", path}); err != nil {
		t.Fatal(err)
	}
	if _, err := fwd2.Sink(relay.ForwardOptions{}); err == nil {
		t.Fatal("-forward plus -forward-file did not error")
	}

	// An empty spec file is a configuration error, not a silent no-op.
	empty := filepath.Join(t.TempDir(), "empty.conf")
	if err := os.WriteFile(empty, []byte(" \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs3 := flag.NewFlagSet("t", flag.ContinueOnError)
	fwd3 := RegisterForward(fs3)
	if err := fs3.Parse([]string{"-forward-file", empty}); err != nil {
		t.Fatal(err)
	}
	if _, err := fwd3.Sink(relay.ForwardOptions{}); err == nil {
		t.Fatal("empty -forward-file did not error")
	}
}

// TestForwardSIGHUPReload arms the real signal handler and delivers a
// SIGHUP to the test process: the file edit must be applied to the live
// sink without any call other than the signal.
func TestForwardSIGHUPReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "forward.conf")
	if err := os.WriteFile(path, []byte("addrs=127.0.0.1:1,token=s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fwd := RegisterForward(fs)
	if err := fs.Parse([]string{"-forward-file", path}); err != nil {
		t.Fatal(err)
	}
	sink, err := fwd.Sink(relay.ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	stop := fwd.WatchSIGHUP(sink, relay.ForwardOptions{}, t.Logf)
	defer stop()

	if err := os.WriteFile(path, []byte("addrs=127.0.0.1:1|127.0.0.1:2,token=s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.Stats().Reloads == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("timed out waiting for the SIGHUP reload")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := sink.Stats(); len(st.Endpoints) != 2 {
		t.Fatalf("endpoints after SIGHUP = %+v, want 2", st.Endpoints)
	}
}

// TestStoreSpec: -store takes a directory and an fsync policy, and
// nothing else — the keys that once chose segment size, sync cadence
// and encoding fail with the unknown-key error.
func TestStoreSpec(t *testing.T) {
	parse := func(spec string) (wal.Options, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		s := RegisterStore(fs)
		if err := fs.Parse([]string{"-store", spec}); err != nil {
			t.Fatal(err)
		}
		return s.Options("journal", nil)
	}
	for spec, want := range map[string]wal.SyncPolicy{
		"/d":                wal.SyncInterval,
		"/d,fsync=batch":    wal.SyncBatch,
		"/d,fsync=off":      wal.SyncOff,
		"/d,fsync=interval": wal.SyncInterval,
	} {
		opts, err := parse(spec)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		if opts.Dir != filepath.Join("/d", "journal") || opts.Sync != want {
			t.Errorf("%q = dir %q sync %v, want %q %v", spec, opts.Dir, opts.Sync, filepath.Join("/d", "journal"), want)
		}
	}
	for _, spec := range []string{
		"/d,compress=speed", "/d,compress=best", "/d,compress=none",
		"/d,interval=100ms", "/d,segbytes=16777216", "/d,fsync=batch,segbytes=1",
	} {
		if _, err := parse(spec); err == nil || !strings.Contains(err.Error(), "unknown option") {
			t.Errorf("%q: err = %v, want the unknown-key error", spec, err)
		}
	}
	for _, spec := range []string{",fsync=batch", "/d,fsync=sometimes", "/d,fsync"} {
		if _, err := parse(spec); err == nil {
			t.Errorf("%q: accepted", spec)
		}
	}
}
