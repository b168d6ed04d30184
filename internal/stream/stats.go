package stream

import (
	"sort"

	"decoydb/internal/classify"
	"net/netip"
)

// This file is the read side of the analyzer: everything here runs at
// scrape or query time (admin-plane handlers, obs adapters, the
// TraceRing verdict feed), never on the ingest hot path, and takes the
// same mutex the writers do.

// Stats is a point-in-time snapshot of analyzer counters.
type Stats struct {
	Events   uint64 `json:"events"`
	Batches  uint64 `json:"batches"`
	Sources  int    `json:"sources"`
	Evicted  uint64 `json:"evicted"`
	Assigns  uint64 `json:"assigns"`
	Clusters int    `json:"clusters"`
	Refits   uint64 `json:"refits"`
	Merged   uint64 `json:"merged"`
	Dropped  uint64 `json:"dropped"`
	Capped   uint64 `json:"capped"`
	Vocab    int    `json:"vocab"`
	// Alert totals, lifetime (the ring retains only the newest).
	Alerts      uint64 `json:"alerts"`
	Escalations uint64 `json:"escalations"`
	NewClusters uint64 `json:"new_clusters"`
	Shifts      uint64 `json:"shifts"`
}

// Stats returns current counters.
func (a *Analyzer) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Events:      a.events,
		Batches:     a.batches,
		Sources:     a.sources.Len(),
		Evicted:     a.evicted,
		Assigns:     a.assignsN,
		Clusters:    len(a.asn.centroids),
		Refits:      a.asn.refits,
		Merged:      a.asn.merged,
		Dropped:     a.asn.dropped,
		Capped:      a.asn.capped,
		Vocab:       len(a.asn.names),
		Alerts:      a.alerts.total,
		Escalations: a.alerts.byKind[EscalationAlert],
		NewClusters: a.alerts.byKind[NewClusterAlert],
		Shifts:      a.alerts.byKind[ClusterShiftAlert],
	}
}

// Alerts returns up to limit retained alerts, newest first (limit <= 0
// returns everything retained).
func (a *Analyzer) Alerts(limit int) []Alert {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.alerts.recent(limit)
}

// ClusterInfo describes one live behaviour cluster.
type ClusterInfo struct {
	ID int `json:"id"`
	// Members counts live (non-evicted) sources currently assigned.
	Members int `json:"members"`
	// Assigns counts lifetime assignment events into this cluster.
	Assigns uint64 `json:"assigns"`
	// TopActions are the centroid's highest-weight action tokens — the
	// behaviour the cluster represents, readable at a glance.
	TopActions []string `json:"top_actions,omitempty"`
}

// Clusters returns the live clusters, largest membership first.
func (a *Analyzer) Clusters() []ClusterInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ClusterInfo, 0, len(a.asn.centroids))
	for _, c := range a.asn.centroids {
		out = append(out, ClusterInfo{
			ID:         c.id,
			Members:    c.members,
			Assigns:    c.assigns,
			TopActions: a.asn.topActions(c, 5),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Members != out[j].Members {
			return out[i].Members > out[j].Members
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Verdict reports the current behaviour of a source, if the analyzer is
// tracking it. It is the feed obs.TraceRing consults so /traces can show
// a live classification while a session is still open.
func (a *Analyzer) Verdict(addr netip.Addr) (classify.Behavior, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.sources.Peek(addr)
	if s == nil {
		return classify.Scanning, false
	}
	return s.behavior, true
}

// Cluster reports the cluster a source is currently assigned to
// (-1, false when untracked or not yet assigned).
func (a *Analyzer) Cluster(addr netip.Addr) (int, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.sources.Peek(addr)
	if s == nil || s.cluster < 0 {
		return -1, false
	}
	return s.cluster, true
}
