package cliflags

import (
	"flag"
	"net/netip"
	"testing"
	"time"

	"decoydb/internal/core"
)

func TestStreamFlagDisabledByDefault(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	sf := RegisterStream(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if sf.Enabled() {
		t.Fatal("stream enabled without -stream")
	}
	if an := sf.Analyzer(); an != nil {
		t.Fatal("Analyzer() != nil while disabled")
	}
	if fn := TraceVerdicts(nil); fn != nil {
		t.Fatal("TraceVerdicts(nil) should be nil so TraceOptions sees no feed")
	}
}

func TestStreamFlagBuildsAnalyzer(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	sf := RegisterStream(fs)
	err := fs.Parse([]string{"-stream"})
	if err != nil {
		t.Fatal(err)
	}
	an := sf.Analyzer()
	if an == nil {
		t.Fatal("Analyzer() == nil with -stream set")
	}
	src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, 1}), 40000)
	an.Record(core.Event{
		Time:     time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC),
		Src:      src,
		Honeypot: core.Info{DBMS: core.Redis, Level: core.Low},
		Kind:     core.EventCommand,
		Command:  "SLAVEOF",
	})
	fn := TraceVerdicts(an)
	if fn == nil {
		t.Fatal("TraceVerdicts(an) == nil")
	}
	if v, ok := fn(src.Addr()); !ok || v != "exploiting" {
		t.Fatalf("verdict feed = %q ok=%v, want exploiting", v, ok)
	}
	if _, ok := fn(netip.MustParseAddr("203.0.113.99")); ok {
		t.Fatal("verdict feed reported an untracked source")
	}
}
