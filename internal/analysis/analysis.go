// Package analysis computes the aggregate views behind the paper's tables
// and figures: retention CDFs, upset intersections, country/AS login
// tables, behaviour matrices and brute-force statistics. Each function
// takes evstore records and returns plain data the experiments render.
package analysis

import (
	"sort"
	"strings"

	"decoydb/internal/asdb"
	"decoydb/internal/classify"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
)

// --- Retention (Figures 3 and 5) ---

// CDF is an empirical distribution over active-day counts: CDF[d] is the
// fraction of the population active on at most d+1 days.
type CDF []float64

// RetentionCDF builds the CDF for a set of day counts over maxDays.
func RetentionCDF(dayCounts []int, maxDays int) CDF {
	out := make(CDF, maxDays)
	if len(dayCounts) == 0 {
		return out
	}
	hist := make([]int, maxDays+1)
	for _, d := range dayCounts {
		if d < 1 {
			d = 1
		}
		if d > maxDays {
			d = maxDays
		}
		hist[d]++
	}
	cum := 0
	for d := 1; d <= maxDays; d++ {
		cum += hist[d]
		out[d-1] = float64(cum) / float64(len(dayCounts))
	}
	return out
}

// At returns the CDF value at day d (1-based).
func (c CDF) At(d int) float64 {
	if d < 1 || d > len(c) {
		return 0
	}
	return c[d-1]
}

// LowRetentionByDBMS returns per-DBMS day-count samples for the low tier
// (Figure 3), keyed by DBMS name, plus the overall sample under "".
func LowRetentionByDBMS(recs []*evstore.IPRecord) map[string][]int {
	out := map[string][]int{}
	for _, r := range recs {
		overall := uint64(0)
		perDBMS := map[string]uint64{}
		for k, a := range r.Per {
			if k.Level != core.Low {
				continue
			}
			overall |= a.ActiveDays
			perDBMS[k.DBMS] |= a.ActiveDays
		}
		if overall != 0 {
			out[""] = append(out[""], popcount(overall))
			for dbms, m := range perDBMS {
				out[dbms] = append(out[dbms], popcount(m))
			}
		}
	}
	return out
}

// MHRetentionByBehavior returns day-count samples per behaviour class on
// the medium/high tier (Figure 5).
func MHRetentionByBehavior(recs []*evstore.IPRecord) map[classify.Behavior][]int {
	out := map[classify.Behavior][]int{}
	for _, r := range recs {
		mask := r.ActiveDaysMask(classify.MediumHigh)
		if mask == 0 {
			continue
		}
		b := classify.IP(r, classify.MediumHigh)
		out[b] = append(out[b], popcount(mask))
	}
	return out
}

func popcount(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// --- Upset intersections (Figure 4) ---

// UpsetRow is one intersection bucket: the exact set of medium/high
// honeypot types an IP contacted, and how many IPs share it.
type UpsetRow struct {
	Combo string // "+"-joined sorted DBMS names
	Count int
}

// Upset computes exact-combination intersections of medium/high honeypot
// membership, largest first.
func Upset(recs []*evstore.IPRecord) []UpsetRow {
	counts := map[string]int{}
	for _, r := range recs {
		set := map[string]bool{}
		for k := range r.Per {
			if k.Level >= core.Medium {
				set[k.DBMS] = true
			}
		}
		if len(set) == 0 {
			continue
		}
		names := make([]string, 0, len(set))
		for d := range set {
			names = append(names, d)
		}
		sort.Strings(names)
		counts[strings.Join(names, "+")]++
	}
	out := make([]UpsetRow, 0, len(counts))
	for c, n := range counts {
		out = append(out, UpsetRow{Combo: c, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Combo < out[j].Combo
	})
	return out
}

// --- Login tables (Tables 5, 6, 7) ---

// lowLogins sums low-tier login attempts per DBMS for one record.
func lowLogins(r *evstore.IPRecord) map[string]int64 {
	out := map[string]int64{}
	for k, a := range r.Per {
		if k.Level == core.Low && a.Logins > 0 {
			out[k.DBMS] += a.Logins
		}
	}
	return out
}

// CountryRow is one row of the paper's Table 5.
type CountryRow struct {
	Country  string
	Logins   int64
	LoginIPs int
	TotalIPs int
	MySQL    int64
	PSQL     int64
	MSSQL    int64
}

// CountryLoginTable aggregates low-tier logins by source country, sorted
// by descending login volume.
func CountryLoginTable(recs []*evstore.IPRecord) []CountryRow {
	rows := map[string]*CountryRow{}
	get := func(c string) *CountryRow {
		if c == "" {
			c = "??"
		}
		row, ok := rows[c]
		if !ok {
			row = &CountryRow{Country: c}
			rows[c] = row
		}
		return row
	}
	for _, r := range recs {
		onLow := false
		for k := range r.Per {
			if k.Level == core.Low {
				onLow = true
				break
			}
		}
		if !onLow {
			continue
		}
		row := get(r.Country)
		row.TotalIPs++
		ll := lowLogins(r)
		if len(ll) == 0 {
			continue
		}
		row.LoginIPs++
		for dbms, n := range ll {
			row.Logins += n
			switch dbms {
			case core.MySQL:
				row.MySQL += n
			case core.Postgres:
				row.PSQL += n
			case core.MSSQL:
				row.MSSQL += n
			}
		}
	}
	out := make([]CountryRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Logins != out[j].Logins {
			return out[i].Logins > out[j].Logins
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// ASRow is one row of the paper's Table 6.
type ASRow struct {
	ASN    uint32
	Name   string
	IPs    int
	Pct    float64 // share of all low-tier IPs
	Logins int64
	MySQL  int64
	MSSQL  int64
}

// TopASNs aggregates low-tier sources by AS, sorted by descending IP
// count. Unmapped sources (ASN 0) are excluded, as in the paper.
func TopASNs(recs []*evstore.IPRecord) []ASRow {
	rows := map[uint32]*ASRow{}
	total := 0
	for _, r := range recs {
		onLow := false
		for k := range r.Per {
			if k.Level == core.Low {
				onLow = true
				break
			}
		}
		if !onLow {
			continue
		}
		total++
		if r.ASN == 0 {
			continue
		}
		row, ok := rows[r.ASN]
		if !ok {
			row = &ASRow{ASN: r.ASN, Name: r.ASName}
			rows[r.ASN] = row
		}
		row.IPs++
		for dbms, n := range lowLogins(r) {
			row.Logins += n
			switch dbms {
			case core.MySQL:
				row.MySQL += n
			case core.MSSQL:
				row.MSSQL += n
			}
		}
	}
	out := make([]ASRow, 0, len(rows))
	for _, r := range rows {
		if total > 0 {
			r.Pct = 100 * float64(r.IPs) / float64(total)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IPs != out[j].IPs {
			return out[i].IPs > out[j].IPs
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

// LoginIPsByASType counts brute-forcing sources per AS organisation type
// (Table 7).
func LoginIPsByASType(recs []*evstore.IPRecord) map[asdb.Type]int {
	out := map[asdb.Type]int{}
	for _, r := range recs {
		if len(lowLogins(r)) == 0 {
			continue
		}
		out[r.ASType]++
	}
	return out
}

// --- Behaviour matrices (Tables 10 and 11) ---

// MHDBMSes lists the medium/high honeypot types in display order.
var MHDBMSes = []string{core.Elastic, core.MongoDB, core.Postgres, core.Redis}

// ExploiterCountryRow is one row of the paper's Table 10.
type ExploiterCountryRow struct {
	Country string
	Total   int
	PerDBMS map[string]int
}

// ExploiterCountries counts exploiting sources by country and target
// honeypot, sorted by descending total.
func ExploiterCountries(recs []*evstore.IPRecord) []ExploiterCountryRow {
	rows := map[string]*ExploiterCountryRow{}
	for _, r := range recs {
		counted := false
		for _, dbms := range MHDBMSes {
			if classify.IP(r, classify.ForDBMS(dbms)) != classify.Exploiting {
				continue
			}
			c := r.Country
			if c == "" {
				c = "??"
			}
			row, ok := rows[c]
			if !ok {
				row = &ExploiterCountryRow{Country: c, PerDBMS: map[string]int{}}
				rows[c] = row
			}
			row.PerDBMS[dbms]++
			if !counted {
				row.Total++
				counted = true
			}
		}
	}
	out := make([]ExploiterCountryRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// BehaviorByASType counts per-honeypot behaviour memberships by AS type
// (Table 11): an IP scanning two honeypot types contributes two scanning
// memberships.
func BehaviorByASType(recs []*evstore.IPRecord) map[asdb.Type]*classify.Counts {
	out := map[asdb.Type]*classify.Counts{}
	for _, r := range recs {
		for _, dbms := range MHDBMSes {
			q := classify.ForDBMS(dbms)
			touched := false
			for k := range r.Per {
				if q.MatchKey(k) {
					touched = true
					break
				}
			}
			if !touched {
				continue
			}
			c, ok := out[r.ASType]
			if !ok {
				c = &classify.Counts{}
				out[r.ASType] = c
			}
			c.IPs++
			switch classify.IP(r, q) {
			case classify.Scanning:
				c.Scanning++
			case classify.Scouting:
				c.Scouting++
			case classify.Exploiting:
				c.Exploiting++
			}
		}
	}
	return out
}

// --- Brute-force statistics (Section 5 prose) ---

// BruteStats summarises low-tier brute-force behaviour.
type BruteStats struct {
	TotalLogins       int64
	Clients           int
	AvgPerClient      float64
	UniqueCombos      int
	UniqueUsers       int
	UniquePasses      int
	HeaviestIPLogins  int64
	HeaviestIPCountry string
}

// BruteForce computes the Section 5 statistics over the low tier of a
// dataset snapshot.
func BruteForce(snap *evstore.Snapshot) BruteStats {
	var st BruteStats
	users := map[string]bool{}
	passes := map[string]bool{}
	for _, c := range snap.Creds(evstore.Query{Tier: evstore.LowTier}, 0) {
		st.UniqueCombos++
		st.TotalLogins += c.Count
		users[c.User] = true
		passes[c.Pass] = true
	}
	st.UniqueUsers = len(users)
	st.UniquePasses = len(passes)
	for _, r := range snap.Recs() {
		var n int64
		for _, v := range lowLogins(r) {
			n += v
		}
		if n == 0 {
			continue
		}
		st.Clients++
		if n > st.HeaviestIPLogins {
			st.HeaviestIPLogins = n
			st.HeaviestIPCountry = r.Country
		}
	}
	if st.Clients > 0 {
		st.AvgPerClient = float64(st.TotalLogins) / float64(st.Clients)
	}
	return st
}

// --- Control group (Section 5 multi- vs single-service hosts) ---

// ControlGroupStats reproduces the multi/single instance comparison.
type ControlGroupStats struct {
	SingleIPs       int
	MultiIPs        int
	Overlap         int
	BruteSingleOnly int
	BruteMultiOnly  int
}

// ControlGroup computes the split over low-tier records.
func ControlGroup(recs []*evstore.IPRecord) ControlGroupStats {
	var st ControlGroupStats
	for _, r := range recs {
		var onSingle, onMulti bool
		var loginSingle, loginMulti bool
		for k, a := range r.Per {
			if k.Level != core.Low {
				continue
			}
			switch k.Group {
			case core.GroupSingle:
				onSingle = true
				if a.Logins > 0 {
					loginSingle = true
				}
			case core.GroupMulti:
				onMulti = true
				if a.Logins > 0 {
					loginMulti = true
				}
			}
		}
		if onSingle {
			st.SingleIPs++
		}
		if onMulti {
			st.MultiIPs++
		}
		if onSingle && onMulti {
			st.Overlap++
			if loginSingle && !loginMulti {
				st.BruteSingleOnly++
			}
			if loginMulti && !loginSingle {
				st.BruteMultiOnly++
			}
		}
	}
	return st
}

// --- Configuration effects (Section 6 prose) ---

// ConfigEffects captures the medium-tier configuration comparisons.
type ConfigEffects struct {
	PGRestrictedLogins   int64
	PGOpenLogins         int64
	RedisFakeTypeCmds    int64
	RedisDefaultTypeCmds int64
}

// ConfigEffect computes the per-configuration activity split.
func ConfigEffect(recs []*evstore.IPRecord) ConfigEffects {
	var ce ConfigEffects
	for _, r := range recs {
		for k, a := range r.Per {
			if k.Level != core.Medium {
				continue
			}
			switch {
			case k.DBMS == core.Postgres && k.Config == core.ConfigNoLogin:
				ce.PGRestrictedLogins += a.Logins
			case k.DBMS == core.Postgres && k.Config == core.ConfigDefault:
				ce.PGOpenLogins += a.Logins
			case k.DBMS == core.Redis:
				var types int64
				for _, act := range a.Actions {
					if act.Name == "TYPE" {
						types++
					}
				}
				if k.Config == core.ConfigFakeData {
					ce.RedisFakeTypeCmds += types
				} else {
					ce.RedisDefaultTypeCmds += types
				}
			}
		}
	}
	return ce
}

// --- Ransom analysis (Section 6.3) ---

// RansomStats summarises the MongoDB data-theft campaign observations.
type RansomStats struct {
	IPs       int
	Templates int
	Notes     int64
}

// Ransom detects ransom behaviour on MongoDB records: the wipe-and-insert
// pattern, grouped into note templates by their leading words.
func Ransom(recs []*evstore.IPRecord) RansomStats {
	var st RansomStats
	templates := map[string]bool{}
	for _, r := range recs {
		isRansom := false
		for k, a := range r.Per {
			if k.DBMS != core.MongoDB {
				continue
			}
			var sawDelete bool
			for _, act := range a.Actions {
				switch act.Name {
				case "DELETE":
					sawDelete = true
				case "INSERT":
					if !sawDelete {
						continue
					}
					if i := strings.Index(act.Raw, "doc="); i >= 0 {
						note := act.Raw[i+4:]
						if strings.Contains(note, "BTC") {
							isRansom = true
							st.Notes++
							templates[noteTemplate(note)] = true
						}
					}
				}
			}
		}
		if isRansom {
			st.IPs++
		}
	}
	st.Templates = len(templates)
	return st
}

// noteTemplate keys a ransom note by its opening words, which is how the
// paper distinguished the two groups.
func noteTemplate(note string) string {
	words := strings.Fields(note)
	if len(words) > 6 {
		words = words[:6]
	}
	return strings.Join(words, " ")
}

// --- Institutional scanners (Section 6.1) ---

// InstitutionalShare reports, per medium/high DBMS, how many scanning-
// classified sources are on the institutional list.
func InstitutionalShare(recs []*evstore.IPRecord) map[string][2]int {
	out := map[string][2]int{}
	for _, r := range recs {
		for _, dbms := range MHDBMSes {
			q := classify.ForDBMS(dbms)
			touched := false
			for k := range r.Per {
				if q.MatchKey(k) {
					touched = true
					break
				}
			}
			if !touched || classify.IP(r, q) != classify.Scanning {
				continue
			}
			v := out[dbms]
			v[1]++
			if r.Institutional {
				v[0]++
			}
			out[dbms] = v
		}
	}
	return out
}
