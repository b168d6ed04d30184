package evstore

import (
	"cmp"

	"decoydb/internal/core"
)

// Tier selects honeypot interaction tiers in a Query.
type Tier int

// Tiers. The paper splits most analyses between the low-interaction
// credential traps and the medium/high-interaction honeypots.
const (
	AllTiers Tier = iota
	LowTier
	MediumHighTier
)

func (t Tier) matchLevel(l core.Level) bool {
	switch t {
	case LowTier:
		return l == core.Low
	case MediumHighTier:
		return l >= core.Medium
	}
	return true
}

// tally picks a credential's login count on the tier from its low-tier
// and medium/high-tier counts.
func (t Tier) tally(low, mh int64) int64 {
	switch t {
	case LowTier:
		return low
	case MediumHighTier:
		return mh
	}
	return low + mh
}

// DayRange selects experiment days [From, To). The zero value selects
// the whole window; To <= 0 means "through the end of the window".
type DayRange struct {
	From int
	To   int
}

// IsZero reports whether the range is the whole-window zero value.
func (d DayRange) IsZero() bool { return d.From == 0 && d.To == 0 }

// bounds clamps the range to [0, days).
func (d DayRange) bounds(days int) (lo, hi int) {
	lo, hi = d.From, d.To
	if hi <= 0 || hi > days {
		hi = days
	}
	if lo < 0 {
		lo = 0
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Mask returns the day bitmask covering the range within a days-long
// window. The mask is 64 bits wide — the store rejects longer windows
// at construction, so no representable window truncates.
func (d DayRange) Mask(days int) uint64 {
	lo, hi := d.bounds(days)
	var m uint64
	for day := lo; day < hi; day++ {
		m |= 1 << uint(day)
	}
	return m
}

// Query selects a slice of the capture. The zero value selects
// everything. One options struct feeds every Snapshot read.
//
// Field applicability per method:
//
//   - Creds, Logins: DBMS and Tier. Credential observations are
//     whole-window aggregates, so Days does not apply.
//   - Select, UniqueIPs: all three fields. A record matches when some
//     activity matches DBMS/Tier with an active day inside Days.
//   - HourlyUnique, CumulativeNew: DBMS and Days. The hourly series
//     exist for the low tier only (Figure 2), so Tier is implicit.
//   - classify and ActiveDaysMask use MatchKey: DBMS and Tier.
type Query struct {
	DBMS string // "" = all DBMS
	Tier Tier
	Days DayRange
}

// MatchKey reports whether a honeypot grouping matches the query's DBMS
// and Tier. Days does not participate: it is time-scoped, not
// key-scoped.
func (q Query) MatchKey(k PerKey) bool {
	if q.DBMS != "" && k.DBMS != q.DBMS {
		return false
	}
	return q.Tier.matchLevel(k.Level)
}

// matchRecord reports whether a record matches the full query.
func (q Query) matchRecord(r *IPRecord, days int) bool {
	if q.DBMS == "" && q.Tier == AllTiers && q.Days.IsZero() {
		return true
	}
	mask := uint64(0)
	if !q.Days.IsZero() {
		mask = q.Days.Mask(days)
	}
	for k, a := range r.Per {
		if !q.MatchKey(k) {
			continue
		}
		if mask == 0 || a.ActiveDays&mask != 0 {
			return true
		}
	}
	return false
}

// CredCount is a credential with its observation count.
type CredCount struct {
	Cred
	Count int64
}

// CompareCreds orders credentials by descending count, then by dbms,
// user and pass: a total order, so equal counts on different DBMSes come
// back in the same order every time. Snapshot and the collector tier's
// /query merge both rank credentials with it.
func CompareCreds(a, b CredCount) int {
	if c := cmp.Compare(b.Count, a.Count); c != 0 {
		return c
	}
	if c := cmp.Compare(a.DBMS, b.DBMS); c != 0 {
		return c
	}
	if c := cmp.Compare(a.User, b.User); c != 0 {
		return c
	}
	return cmp.Compare(a.Pass, b.Pass)
}

// hourSpan converts the query's day range into hour bounds.
func hourSpan(q Query, days int) (lo, hi int) {
	dlo, dhi := q.Days.bounds(days)
	return dlo * 24, dhi * 24
}
