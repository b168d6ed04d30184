package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"decoydb/internal/classify"
	"decoydb/internal/evstore"
)

// The /query endpoint serves evstore.Query against the live capture on
// the collector: the same selection semantics dbreport uses offline
// (DBMS, tier, day range), paged and JSON-rendered for remote readers.
// Queries run against a cached Store.Snapshot(). A fresh snapshot does
// not copy the store: it takes record pointers and copies credential
// tallies under each shard lock, and the credential read picks the top
// rows without sorting them all. The handler still serves one snapshot
// to every request inside snapshotMaxAge, so paging reads one
// consistent view and an eager poller does not make every write clone
// its record.
//
// The request/response types double as the wire schema for the
// collector tier: Client fetches them, FanIn merges them, and
// CaptureTables renders them for dbcollect and dbreport — one decoder,
// one schema.

// QueryOptions configures a QueryHandler.
type QueryOptions struct {
	Store *evstore.Store
}

// Limits every query handler shares: how long a cached snapshot keeps
// serving before the next request rebuilds it (a request can force a
// rebuild with ?fresh=1), the most records one page carries, and the
// most credential rows one response carries, locally or merged by
// FanIn. Every collector in a tier runs this code, so all of them cap
// their pages at the same maxLimit.
const (
	snapshotMaxAge = time.Second
	maxLimit       = 1000
	maxCreds       = 100
)

// QueryHandler serves /query over a live store. Safe for concurrent use.
type QueryHandler struct {
	opts QueryOptions

	mu    sync.Mutex
	snap  *evstore.Snapshot
	built time.Time
}

// NewQueryHandler returns a handler over the given store.
func NewQueryHandler(opts QueryOptions) *QueryHandler {
	return &QueryHandler{opts: opts}
}

// snapshot returns the cached snapshot, rebuilding when stale or forced.
func (h *QueryHandler) snapshot(force bool) (*evstore.Snapshot, time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if force || h.snap == nil || time.Since(h.built) > snapshotMaxAge {
		h.snap = h.opts.Store.Snapshot()
		h.built = time.Now()
	}
	return h.snap, h.built
}

// QueryRequest is one parsed /query selection. The zero value asks for
// everything with the default page (limit 100, 10 credential rows).
type QueryRequest struct {
	DBMS   string // protocol filter ("" = all)
	Tier   string // interaction tier: "", "all", "low", "mediumhigh"
	From   int    // first capture day (inclusive, 0 = start)
	To     int    // last capture day (0 = open)
	Limit  int    // record page size
	Offset int    // record page offset
	Creds  int    // credential rows wanted
	Fresh  bool   // force a snapshot rebuild

	// Scope selects how much of the tier answers: "" merges across
	// peers when the serving collector runs a fan-in, ScopeLocal
	// restricts the response to the serving collector's own store. The
	// fan-in stamps ScopeLocal on its peer fetches — that is what keeps
	// a tier of fan-ins from recursing into each other.
	Scope string
}

// ScopeLocal asks a collector for its own capture only, bypassing any
// tier fan-in mounted on its /query.
const ScopeLocal = "local"

// page clamps the request's paging to what one response carries: the
// record page size to [0, maxLimit], the offset to >= 0 and the
// credential rows to [0, maxCreds]. Respond and FanIn cut their pages
// with it.
func (q QueryRequest) page() (limit, offset, creds int) {
	return min(max(q.Limit, 0), maxLimit), max(q.Offset, 0), min(max(q.Creds, 0), maxCreds)
}

// ParseQueryRequest decodes the URL parameters of a /query request.
// Errors are client errors (http.StatusBadRequest).
func ParseQueryRequest(r *http.Request) (QueryRequest, error) {
	req := QueryRequest{
		DBMS:  r.URL.Query().Get("dbms"),
		Tier:  r.URL.Query().Get("tier"),
		Fresh: r.URL.Query().Get("fresh") == "1",
		Scope: r.URL.Query().Get("scope"),
	}
	if _, err := parseTier(req.Tier); err != nil {
		return req, err
	}
	if req.Scope != "" && req.Scope != ScopeLocal {
		return req, fmt.Errorf("bad scope=%q: want %q or empty", req.Scope, ScopeLocal)
	}
	var err error
	if req.From, err = intParam(r, "from", 0); err != nil {
		return req, err
	}
	if req.From < 0 {
		return req, fmt.Errorf("bad from=%d: negative", req.From)
	}
	if req.To, err = intParam(r, "to", 0); err != nil {
		return req, err
	}
	if req.Limit, err = intParam(r, "limit", 100); err != nil {
		return req, err
	}
	if req.Offset, err = intParam(r, "offset", 0); err != nil {
		return req, err
	}
	if req.Creds, err = intParam(r, "creds", 10); err != nil {
		return req, err
	}
	return req, nil
}

// Values renders the request back into URL parameters — the inverse of
// ParseQueryRequest, used by Client to address remote collectors.
func (q QueryRequest) Values() url.Values {
	v := url.Values{}
	if q.DBMS != "" {
		v.Set("dbms", q.DBMS)
	}
	if q.Tier != "" {
		v.Set("tier", q.Tier)
	}
	if q.From != 0 {
		v.Set("from", strconv.Itoa(q.From))
	}
	if q.To != 0 {
		v.Set("to", strconv.Itoa(q.To))
	}
	v.Set("limit", strconv.Itoa(q.Limit))
	v.Set("offset", strconv.Itoa(q.Offset))
	v.Set("creds", strconv.Itoa(q.Creds))
	if q.Fresh {
		v.Set("fresh", "1")
	}
	if q.Scope != "" {
		v.Set("scope", q.Scope)
	}
	return v
}

// QueryParams echoes the parsed selection back to the caller.
type QueryParams struct {
	DBMS string `json:"dbms,omitempty"`
	Tier string `json:"tier,omitempty"`
	From int    `json:"from,omitempty"`
	To   int    `json:"to,omitempty"`
}

// CredRow is one aggregated credential.
type CredRow struct {
	DBMS  string `json:"dbms"`
	User  string `json:"user"`
	Pass  string `json:"pass"`
	Count int64  `json:"count"`
}

// RecordRow is one source address within the selection. The per-source
// counters are restricted to the activities the query matches.
type RecordRow struct {
	Addr          string    `json:"addr"`
	Country       string    `json:"country,omitempty"`
	ASN           uint32    `json:"asn,omitempty"`
	ASName        string    `json:"as_name,omitempty"`
	Institutional bool      `json:"institutional,omitempty"`
	FirstSeen     time.Time `json:"first_seen"`
	LastSeen      time.Time `json:"last_seen"`
	Sessions      int       `json:"sessions"`
	Logins        int64     `json:"logins"`
	LoginOK       int64     `json:"login_ok"`
	Commands      int64     `json:"commands"`
	ActiveDays    int       `json:"active_days"`
	Verdict       string    `json:"verdict"`
}

// PeerStatus is one collector's contribution to a fanned-in query.
type PeerStatus struct {
	Addr   string `json:"addr"`
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
	Events int64  `json:"events,omitempty"`
}

// TierInfo describes the collector tier behind a merged QueryResponse.
type TierInfo struct {
	Collectors int `json:"collectors"` // local + peers asked
	Responded  int `json:"responded"`  // how many answered
	// Approx is set when the merged unique/total counts are an upper
	// bound rather than exact: some collector's record page was cut by
	// the limit, so cross-collector overlap beyond the fetched pages
	// cannot be subtracted.
	Approx bool         `json:"approx,omitempty"`
	Peers  []PeerStatus `json:"peers"`
}

// QueryResponse is the /query payload. Tier is set only on responses
// merged across a collector tier (see FanIn).
type QueryResponse struct {
	Now         time.Time   `json:"now"`
	SnapshotAge string      `json:"snapshot_age"`
	Start       time.Time   `json:"start"`
	Days        int         `json:"days"`
	Events      int64       `json:"events"`
	Query       QueryParams `json:"query"`
	UniqueIPs   int         `json:"unique_ips"`
	Logins      int64       `json:"logins"`
	Creds       []CredRow   `json:"creds"`
	Total       int         `json:"total_records"`
	Offset      int         `json:"offset"`
	Records     []RecordRow `json:"records"`
	Tier        *TierInfo   `json:"tier,omitempty"`
}

// parseTier maps the ?tier= parameter onto evstore tiers.
func parseTier(s string) (evstore.Tier, error) {
	switch s {
	case "", "all":
		return evstore.AllTiers, nil
	case "low":
		return evstore.LowTier, nil
	case "mediumhigh", "medium-high", "medium", "high":
		return evstore.MediumHighTier, nil
	}
	return evstore.AllTiers, fmt.Errorf("unknown tier %q (want all, low, or mediumhigh)", s)
}

// intParam parses an integer query parameter with a default.
func intParam(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: not an integer", name, s)
	}
	return v, nil
}

// Respond runs the selection against the (cached) snapshot and renders
// the response — the HTTP-free core of the handler, shared by ServeHTTP
// and the tier fan-in. The error is a client error (bad tier).
func (h *QueryHandler) Respond(req QueryRequest) (QueryResponse, error) {
	tier, err := parseTier(req.Tier)
	if err != nil {
		return QueryResponse{}, err
	}
	limit, offset, creds := req.page()
	q := evstore.Query{
		DBMS: req.DBMS,
		Tier: tier,
		Days: evstore.DayRange{From: req.From, To: req.To},
	}

	snap, built := h.snapshot(req.Fresh)

	matched := snap.Select(q)
	page := matched
	if offset > len(page) {
		page = nil
	} else {
		page = page[offset:]
	}
	if len(page) > limit {
		page = page[:limit]
	}
	records := make([]RecordRow, 0, len(page))
	for _, rec := range page {
		row := RecordRow{
			Addr:          rec.Addr.String(),
			Country:       rec.Country,
			ASN:           rec.ASN,
			ASName:        rec.ASName,
			Institutional: rec.Institutional,
			FirstSeen:     rec.FirstSeen,
			LastSeen:      rec.LastSeen,
			Verdict:       classify.IP(rec, q).String(),
		}
		var mask uint64
		for k, a := range rec.Per {
			if !q.MatchKey(k) {
				continue
			}
			row.Sessions += a.Sessions
			row.Logins += a.Logins
			row.LoginOK += a.LoginOK
			row.Commands += a.CommandsRun
			mask |= a.ActiveDays
		}
		row.ActiveDays = bits.OnesCount64(mask)
		records = append(records, row)
	}

	var credCounts []evstore.CredCount
	if creds > 0 { // Creds reads n <= 0 as "all"
		credCounts = snap.Creds(q, creds)
	}
	credRows := make([]CredRow, 0, len(credCounts))
	for _, c := range credCounts {
		credRows = append(credRows, CredRow{DBMS: c.DBMS, User: c.User, Pass: c.Pass, Count: c.Count})
	}

	return QueryResponse{
		Now:         time.Now().UTC(),
		SnapshotAge: time.Since(built).Round(time.Millisecond).String(),
		Start:       snap.Start(),
		Days:        snap.Days(),
		Events:      snap.Events(),
		Query:       QueryParams{DBMS: q.DBMS, Tier: req.Tier, From: req.From, To: req.To},
		UniqueIPs:   len(matched),
		Logins:      snap.Logins(q),
		Creds:       credRows,
		Total:       len(matched),
		Offset:      offset,
		Records:     records,
	}, nil
}

// ServeHTTP implements http.Handler.
func (h *QueryHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := ParseQueryRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := h.Respond(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, resp)
}

// writeJSON renders v with indentation — these endpoints are read by
// humans with curl at 2am as often as by tooling.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
