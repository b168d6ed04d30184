package obs

import (
	"context"
	"fmt"
	"net/http"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decoydb/internal/classify"
	"decoydb/internal/evstore"
)

// FanIn merges /query across a collector tier. Mounted in place of the
// plain QueryHandler on a collector given -peers, it answers every
// query with the union of the local capture and each peer's: a reader
// pointed at any one collector sees the whole tier as a single logical
// capture, no matter how rendezvous hashing spread the farms.
//
// Merge rules:
//
//   - Events and logins are summed — farms partition across collectors,
//     so each event is ingested exactly once tier-wide.
//   - Source records are merged by address: counters sum, first/last
//     seen take the min/max, active days the max (the per-day bitmask
//     does not cross the wire), and the verdict escalates to the most
//     severe any collector assigned. A source only spans collectors
//     during a failover window, so overlap is the exception.
//   - Unique/total counts are the per-collector sums minus the overlap
//     visible in the fetched pages — exact whenever the page covers the
//     selection, an upper bound otherwise.
//   - Credentials merge by (dbms, user, pass), re-sort in
//     evstore.CompareCreds order (the order each collector answers in),
//     and truncate; merging per-collector top-N lists is approximate in
//     the tail, as with any distributed top-K.
//
// Peers are asked for limit+offset records from zero so the merged page
// is correct at any offset. Every collector caps that wide page at
// maxLimit (1,000), so the merged order ends there: a query with
// offset+limit past maxLimit is refused with 400 rather than answered
// cut short, shifted or empty. A peer fetch that takes longer than
// peerTimeout (5 s) counts as a failed peer. A peer
// that fails to answer degrades the response, not the request: its
// slot is reported in Tier.Peers and the rest of the tier is merged as
// usual.
type FanInOptions struct {
	// Local answers for this collector's own store. Required.
	Local *QueryHandler
	// Peers are admin-plane addresses (host:port) of the other
	// collectors in the tier.
	Peers []string
	// Logf logs peer failures; nil discards.
	Logf func(format string, args ...any)
}

// FanIn is an http.Handler and a registry Source (named "tier").
type FanIn struct {
	opts    FanInOptions
	clients []*Client

	queries     atomic.Uint64 // fanned-in queries served
	peerFetches atomic.Uint64
	peerErrors  atomic.Uint64
}

// peerTimeout bounds each peer fetch.
const peerTimeout = 5 * time.Second

// NewFanIn builds the fan-in handler.
func NewFanIn(opts FanInOptions) *FanIn {
	f := &FanIn{opts: opts}
	for _, addr := range opts.Peers {
		f.clients = append(f.clients, NewClient(addr, peerTimeout))
	}
	return f
}

// verdictRank orders classify verdicts by severity for merge escalation.
// An unknown name ranks below scanning.
func verdictRank(v string) int {
	if b, ok := classify.ParseBehavior(v); ok {
		return int(b)
	}
	return -1
}

// ServeHTTP implements http.Handler.
func (f *FanIn) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := ParseQueryRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A scope=local request is another fan-in asking for this
	// collector's own capture: answer from the local store and do NOT
	// fan out again, or a tier of fan-ins would recurse forever.
	if req.Scope == ScopeLocal {
		resp, err := f.opts.Local.Respond(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, resp)
		return
	}

	// Every collector, this one included, is asked for its LOCAL capture
	// (peers run fan-ins too; scope=local is the recursion breaker) and
	// for the merged page's worth of records from offset zero: a record
	// on page two locally may be page one tier-wide, and vice versa.
	limit, offset, nCreds := req.page()
	if offset > maxLimit-limit {
		http.Error(w, fmt.Sprintf("offset+limit exceeds %d: a tier query cannot page deeper than one collector's page", maxLimit),
			http.StatusBadRequest)
		return
	}
	wide := req
	wide.Scope = ScopeLocal
	wide.Limit, wide.Offset = limit+offset, 0
	local, err := f.opts.Local.Respond(wide)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f.queries.Add(1)

	type fetched struct {
		addr string
		resp *QueryResponse
		err  error
	}
	results := make([]fetched, len(f.clients))
	var wg sync.WaitGroup
	for i, cl := range f.clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), peerTimeout)
			defer cancel()
			f.peerFetches.Add(1)
			resp, err := cl.Query(ctx, wide)
			results[i] = fetched{addr: cl.Base(), resp: resp, err: err}
		}(i, cl)
	}
	wg.Wait()

	merged := local
	tier := &TierInfo{Collectors: 1 + len(f.clients), Responded: 1}
	byAddr := make(map[string]*RecordRow, len(local.Records))
	order := make([]string, 0, len(local.Records))
	for i := range local.Records {
		rec := local.Records[i]
		byAddr[rec.Addr] = &rec
		order = append(order, rec.Addr)
	}
	credKey := func(c CredRow) evstore.Cred { return evstore.Cred{DBMS: c.DBMS, User: c.User, Pass: c.Pass} }
	creds := make(map[evstore.Cred]int64, len(local.Creds))
	for _, c := range local.Creds {
		creds[credKey(c)] += c.Count
	}
	fetchedRecords := len(local.Records)
	// Overlap subtraction is only exact when every page covered its
	// collector's full selection: a page cut by the limit can hide a
	// record that another collector also holds, so the visible overlap
	// under-counts and subtracting it would turn an upper bound into a
	// wrong-looking exact number. Capture coverage before the merge loop
	// mutates the response.
	covered := len(local.Records) == local.Total

	for _, res := range results {
		if res.err != nil {
			f.peerErrors.Add(1)
			f.logf("obs: tier peer %s: %v", res.addr, res.err)
			tier.Peers = append(tier.Peers, PeerStatus{Addr: res.addr, Error: res.err.Error()})
			continue
		}
		p := res.resp
		tier.Responded++
		tier.Peers = append(tier.Peers, PeerStatus{Addr: res.addr, OK: true, Events: p.Events})

		merged.Events += p.Events
		merged.Logins += p.Logins
		merged.Total += p.Total
		merged.UniqueIPs += p.UniqueIPs
		if p.Days > merged.Days {
			merged.Days = p.Days
		}
		if !p.Start.IsZero() && (merged.Start.IsZero() || p.Start.Before(merged.Start)) {
			merged.Start = p.Start
		}
		fetchedRecords += len(p.Records)
		covered = covered && len(p.Records) == p.Total
		for i := range p.Records {
			rec := p.Records[i]
			have, seen := byAddr[rec.Addr]
			if !seen {
				byAddr[rec.Addr] = &rec
				order = append(order, rec.Addr)
				continue
			}
			have.Sessions += rec.Sessions
			have.Logins += rec.Logins
			have.LoginOK += rec.LoginOK
			have.Commands += rec.Commands
			if rec.FirstSeen.Before(have.FirstSeen) {
				have.FirstSeen = rec.FirstSeen
			}
			if rec.LastSeen.After(have.LastSeen) {
				have.LastSeen = rec.LastSeen
			}
			if rec.ActiveDays > have.ActiveDays {
				have.ActiveDays = rec.ActiveDays
			}
			if verdictRank(rec.Verdict) > verdictRank(have.Verdict) {
				have.Verdict = rec.Verdict
			}
			if have.Country == "" {
				have.Country = rec.Country
			}
			if have.ASN == 0 {
				have.ASN, have.ASName = rec.ASN, rec.ASName
			}
			have.Institutional = have.Institutional || rec.Institutional
		}
		for _, c := range p.Creds {
			creds[credKey(c)] += c.Count
		}
	}

	// Addresses that appeared on more than one collector were counted
	// once per collector in the summed totals. When every page covered
	// its selection the pages expose all of the overlap and the merged
	// counts are exact; otherwise leave the per-collector sums alone
	// (an honest upper bound) and say so via Tier.Approx. A peer that
	// failed to answer also makes the counts approximate — that slice
	// of the tier is missing entirely.
	if covered {
		overlap := fetchedRecords - len(byAddr)
		merged.Total -= overlap
		merged.UniqueIPs -= overlap
	} else {
		tier.Approx = true
	}
	if tier.Responded < tier.Collectors {
		tier.Approx = true
	}

	// Re-sort merged records by address (the per-collector order) and
	// cut the page the caller actually asked for.
	sort.Slice(order, func(i, j int) bool { return addrLess(order[i], order[j]) })
	records := make([]RecordRow, 0, len(order))
	for _, a := range order {
		records = append(records, *byAddr[a])
	}
	if offset > len(records) {
		records = nil
	} else {
		records = records[offset:]
	}
	if len(records) > limit {
		records = records[:limit]
	}
	merged.Offset = offset
	merged.Records = records

	ranked := make([]evstore.CredCount, 0, len(creds))
	for c, n := range creds {
		ranked = append(ranked, evstore.CredCount{Cred: c, Count: n})
	}
	slices.SortFunc(ranked, evstore.CompareCreds)
	if len(ranked) > nCreds {
		ranked = ranked[:nCreds]
	}
	credRows := make([]CredRow, 0, len(ranked))
	for _, c := range ranked {
		credRows = append(credRows, CredRow{DBMS: c.DBMS, User: c.User, Pass: c.Pass, Count: c.Count})
	}
	merged.Creds = credRows
	merged.Tier = tier

	writeJSON(w, merged)
}

// addrLess orders textual addresses numerically when both parse,
// matching the per-collector record order.
func addrLess(a, b string) bool {
	pa, ea := netip.ParseAddr(a)
	pb, eb := netip.ParseAddr(b)
	if ea == nil && eb == nil {
		return pa.Less(pb)
	}
	return a < b
}

func (f *FanIn) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// Name implements Source.
func (f *FanIn) Name() string { return "tier" }

// Status implements Source.
func (f *FanIn) Status() any {
	return map[string]any{
		"peers":        f.opts.Peers,
		"queries":      f.queries.Load(),
		"peer_fetches": f.peerFetches.Load(),
		"peer_errors":  f.peerErrors.Load(),
	}
}

// Collect implements Source.
func (f *FanIn) Collect(e *Emitter) {
	e.Gauge("decoydb_tier_peers", "Peer collectors this one merges /query across.", float64(len(f.opts.Peers)))
	e.Counter("decoydb_tier_queries_total", "Fanned-in queries served.", float64(f.queries.Load()))
	e.Counter("decoydb_tier_peer_fetches_total", "Peer /query fetches issued.", float64(f.peerFetches.Load()))
	e.Counter("decoydb_tier_peer_errors_total", "Peer /query fetches that failed.", float64(f.peerErrors.Load()))
}
