package obs

import (
	"fmt"
	"time"

	"decoydb/internal/relay"
	"decoydb/internal/report"
)

// CaptureTables renders a collector's capture as report tables: the one
// summary dbcollect prints at exit, dbreport prints for -store, and
// dbreport -live prints from a fetched /query. The tables are Farms
// when cst is set, Collector tier when q is merged across a tier, then
// Capture, Top credentials and, when q carries records, Top sources. A
// nil q renders Farms alone, for a plane that answered no /query.
func CaptureTables(cst *relay.CollectorStats, q *QueryResponse) []*report.Table {
	var tables []*report.Table
	if cst != nil {
		farms := &report.Table{
			Title:  "Farms",
			Header: []string{"farm", "last seq", "frames", "events", "dup frames", "dup events"},
		}
		for _, f := range cst.Farms {
			farms.AddRow(f.Name, f.LastSeq, f.Frames, f.Events, f.DupFrames, f.DupEvents)
		}
		farms.Note = fmt.Sprintf("transport: %d conns (%d open), %d auth failures",
			cst.Conns, cst.Active, cst.AuthFailures)
		tables = append(tables, farms)
	}
	if q == nil {
		return tables
	}

	uniq := fmt.Sprint(q.UniqueIPs)
	if q.Tier != nil {
		tier := &report.Table{
			Title:  "Collector tier",
			Header: []string{"collector", "ok", "events", "error"},
		}
		local := q.Events
		for _, p := range q.Tier.Peers {
			local -= p.Events
		}
		tier.AddRow("(this collector)", true, local, "")
		for _, p := range q.Tier.Peers {
			errStr := p.Error
			if len(errStr) > 60 {
				errStr = errStr[:57] + "..."
			}
			tier.AddRow(p.Addr, p.OK, p.Events, errStr)
		}
		tier.Note = fmt.Sprintf("merged view: %d of %d collectors responded", q.Tier.Responded, q.Tier.Collectors)
		if q.Tier.Approx {
			tier.Note += " — unique/total counts are an upper bound (record pages truncated or a peer missing)"
			uniq = "≤ " + uniq
		}
		tables = append(tables, tier)
	}

	capture := &report.Table{Title: "Capture", Header: []string{"metric", "value"}}
	capture.AddRow("events ingested", q.Events)
	capture.AddRow("unique sources", uniq)
	capture.AddRow("total logins", q.Logins)
	capture.AddRow("capture days", q.Days)
	capture.Note = fmt.Sprintf("snapshot age %s at %s", q.SnapshotAge, q.Now.Format(time.RFC3339))

	creds := &report.Table{
		Title:  "Top credentials",
		Header: []string{"dbms", "user", "pass", "count"},
	}
	for _, c := range q.Creds {
		creds.AddRow(c.DBMS, c.User, c.Pass, c.Count)
	}
	tables = append(tables, capture, creds)

	if len(q.Records) > 0 {
		sources := &report.Table{
			Title:  "Top sources",
			Header: []string{"addr", "country", "sessions", "logins", "ok", "commands", "days", "verdict"},
		}
		for _, r := range q.Records {
			sources.AddRow(r.Addr, r.Country, r.Sessions, r.Logins, r.LoginOK, r.Commands, r.ActiveDays, r.Verdict)
		}
		if q.Total > len(q.Records) {
			sources.Note = fmt.Sprintf("first %d of %d sources (address order; use /query directly to page)", len(q.Records), q.Total)
		}
		tables = append(tables, sources)
	}
	return tables
}
