// Package cliflags holds flag groups shared by the command-line
// binaries, so dbsim and decoydb register the event-bus and relay
// forwarding knobs once, with one set of names and help strings,
// instead of drifting apart flag by flag.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"decoydb/internal/bus"
	"decoydb/internal/relay"
)

// Bus carries the shared event-bus flag values after flag parsing.
type Bus struct {
	Shards *int
	Policy *string
}

// RegisterBus registers the event-bus backpressure flags on fs.
// defaultPolicy differs by binary: dbsim defaults to the lossless
// "block" (the dataset must be a pure function of the seed), decoydb to
// "adaptive" (a live farm sheds a hostile flood instead of stalling).
func RegisterBus(fs *flag.FlagSet, defaultPolicy string) *Bus {
	return &Bus{
		Shards: fs.Int("bus-shards", 0, "event bus shard count (0 = GOMAXPROCS)"),
		Policy: fs.String("bus-policy", defaultPolicy, "event bus backpressure policy under load: block, drop or adaptive"),
	}
}

// Options resolves the parsed flags into bus.Options.
func (b *Bus) Options() (bus.Options, error) {
	policy, err := bus.ParsePolicy(*b.Policy)
	if err != nil {
		return bus.Options{}, fmt.Errorf("-bus-policy: %w", err)
	}
	return bus.Options{Shards: *b.Shards, Policy: policy}, nil
}

// Forward carries the -forward flag values after flag parsing.
type Forward struct {
	Spec *string
	File *string

	// farm/token from the spec parsed at Sink time, kept so Reload can
	// warn when a file edit tries to change something only a restart can.
	farm  string
	token string
}

// RegisterForward registers the -forward flags on fs.
func RegisterForward(fs *flag.FlagSet) *Forward {
	return &Forward{
		Spec: fs.String("forward", "", `forward events to a dbcollect collector tier: "addrs=a:9000|b:9000,token=SECRET[,farm=NAME][,block=BOOL]"`),
		File: fs.String("forward-file", "", "read the -forward spec from this file; SIGHUP re-reads it and re-ranks the live forwarder onto the new addrs without a restart"),
	}
}

// Enabled reports whether either forward flag was set.
func (f *Forward) Enabled() bool { return *f.Spec != "" || *f.File != "" }

// spec resolves the active spec text, reading the file form if set.
func (f *Forward) spec() (string, error) {
	if *f.File == "" {
		return *f.Spec, nil
	}
	if *f.Spec != "" {
		return "", fmt.Errorf("-forward and -forward-file are mutually exclusive")
	}
	b, err := os.ReadFile(*f.File)
	if err != nil {
		return "", fmt.Errorf("-forward-file: %w", err)
	}
	s := strings.TrimSpace(string(b))
	if s == "" {
		return "", fmt.Errorf("-forward-file %s: empty spec", *f.File)
	}
	return s, nil
}

// ParseForward resolves a -forward spec into relay.ForwardOptions,
// using base for everything the spec does not carry (spool size, Logf,
// timeouts, ...). The spec is comma-separated key=value pairs —
// addrs=a:9000|b:9000 (|-separated collector endpoints), token=...,
// farm=..., and block=true|false overriding base.Block. addrs and token
// are required.
func ParseForward(spec string, base relay.ForwardOptions) (relay.ForwardOptions, error) {
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || val == "" {
			return base, fmt.Errorf("-forward: bad segment %q (want key=value)", kv)
		}
		switch key {
		case "addrs", "addr":
			base.Addrs = nil
			seen := make(map[string]bool)
			for _, a := range strings.Split(val, "|") {
				if a = strings.TrimSpace(a); a != "" {
					// A duplicate endpoint is always a typo, and a
					// dangerous one: rendezvous ranking would count the
					// collector twice, so reject it here rather than
					// letting the sink quietly dedupe.
					if seen[a] {
						return base, fmt.Errorf("-forward: duplicate collector address %q in addrs=%s", a, val)
					}
					seen[a] = true
					base.Addrs = append(base.Addrs, a)
				}
			}
		case "token":
			base.Token = val
		case "farm":
			base.Farm = val
		case "block":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return base, fmt.Errorf("-forward: block=%q: %v", val, err)
			}
			base.Block = b
		default:
			return base, fmt.Errorf("-forward: unknown key %q (want addrs, token, farm or block)", key)
		}
	}
	if len(base.Addrs) == 0 || base.Token == "" {
		return base, fmt.Errorf("-forward: addrs= and token= are required, got %q", spec)
	}
	return base, nil
}

// Sink builds a relay.ForwardSink from the parsed flags via
// ParseForward. It returns (nil, nil) when neither flag was set.
func (f *Forward) Sink(base relay.ForwardOptions) (*relay.ForwardSink, error) {
	if !f.Enabled() {
		return nil, nil
	}
	spec, err := f.spec()
	if err != nil {
		return nil, err
	}
	opts, err := ParseForward(spec, base)
	if err != nil {
		return nil, err
	}
	f.farm, f.token = opts.Farm, opts.Token
	sink, err := relay.NewForwardSink(opts)
	if err != nil {
		return nil, fmt.Errorf("-forward: %w", err)
	}
	return sink, nil
}

// Reload re-reads the forward spec — meaningful with -forward-file,
// where the operator edits the file and signals the process — and
// re-ranks the live forwarder onto the new collector addresses via
// SetEndpoints. Farm and token changes cannot be applied to a running
// sink; they are logged and ignored rather than half-applied.
func (f *Forward) Reload(fwd *relay.ForwardSink, base relay.ForwardOptions, logf func(string, ...any)) error {
	if fwd == nil || !f.Enabled() {
		return nil
	}
	spec, err := f.spec()
	if err != nil {
		return err
	}
	opts, err := ParseForward(spec, base)
	if err != nil {
		return err
	}
	if logf != nil {
		if opts.Farm != f.farm {
			logf("cliflags: -forward reload: farm %q -> %q needs a restart; keeping %q", f.farm, opts.Farm, f.farm)
		}
		if opts.Token != f.token {
			logf("cliflags: -forward reload: token change needs a restart; keeping the old token")
		}
	}
	return fwd.SetEndpoints(opts.Addrs)
}

// WatchSIGHUP arms a SIGHUP handler that calls Reload, so a farm behind
// -forward-file can follow collector tier changes without a restart.
// The returned stop function disarms the handler; it is safe to call
// with a nil sink (returns a no-op stop).
func (f *Forward) WatchSIGHUP(fwd *relay.ForwardSink, base relay.ForwardOptions, logf func(string, ...any)) func() {
	if fwd == nil || !f.Enabled() {
		return func() {}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGHUP)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-ch:
				if err := f.Reload(fwd, base, logf); err != nil && logf != nil {
					logf("cliflags: -forward reload: %v", err)
				}
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

// Peers carries the -peers flag value after flag parsing — the admin
// addresses of the other collectors in the tier, whose /query results
// this collector merges so a reader sees one logical capture.
type Peers struct {
	Spec *string
}

// RegisterPeers registers the -peers flag on fs.
func RegisterPeers(fs *flag.FlagSet) *Peers {
	return &Peers{
		Spec: fs.String("peers", "", "admin addresses (host:port) of peer collectors whose /query results are merged into this one's, comma- or |-separated"),
	}
}

// Enabled reports whether the flag was set.
func (p *Peers) Enabled() bool { return len(p.List()) > 0 }

// List returns the parsed peer addresses.
func (p *Peers) List() []string {
	var out []string
	for _, a := range strings.FieldsFunc(*p.Spec, func(r rune) bool { return r == ',' || r == '|' }) {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
