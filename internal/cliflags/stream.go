package cliflags

import (
	"flag"
	"net/netip"

	"decoydb/internal/stream"
)

// Stream carries the -stream flag after flag parsing. It attaches the
// online classification/clustering analyzer, with its fixed bounds,
// to the event path. Every event-handling binary (decoydb, dbsim,
// dbcollect) registers it, so the live farm, the simulator and the
// collector build the same analyzer.
type Stream struct {
	Enable *bool
}

// RegisterStream registers the -stream flag on fs.
func RegisterStream(fs *flag.FlagSet) *Stream {
	return &Stream{
		Enable: fs.Bool("stream", false, "attach the online behaviour analyzer: live classification, centroid clustering and transition alerts (/alerts, /clusters on -admin)"),
	}
}

// Enabled reports whether -stream was set.
func (s *Stream) Enabled() bool { return *s.Enable }

// Analyzer builds the analyzer from the parsed flags, or nil when the
// group is disabled.
func (s *Stream) Analyzer() *stream.Analyzer {
	if !s.Enabled() {
		return nil
	}
	return stream.New(stream.Options{})
}

// TraceVerdicts adapts an analyzer into the obs.TraceOptions.Verdicts
// feed, so /traces shows each active span's live streaming verdict. It
// returns nil for a nil analyzer, which TraceOptions treats as "no
// feed" — callers can wire it unconditionally.
func TraceVerdicts(an *stream.Analyzer) func(src netip.Addr) (string, bool) {
	if an == nil {
		return nil
	}
	return func(src netip.Addr) (string, bool) {
		b, ok := an.Verdict(src)
		return b.String(), ok
	}
}
