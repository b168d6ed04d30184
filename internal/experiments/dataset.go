// Package experiments implements the reproduction harness: one experiment
// per table and figure in the paper's evaluation, all running against a
// dataset produced by the simulated deployment. DESIGN.md Section 5 is
// the index mapping experiment IDs to paper artefacts.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"decoydb/internal/bus"
	"decoydb/internal/cluster"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/geoip"
	"decoydb/internal/intel"
	"decoydb/internal/simnet"
)

// Dataset is one simulated 20-day collection, enriched and indexed.
type Dataset struct {
	Seed  int64
	Scale int
	// Snap is the immutable post-collection view every experiment reads:
	// one merge across store shards at build time, lock-free thereafter.
	Snap *evstore.Snapshot
	Recs []*evstore.IPRecord
	Pop  *simnet.Population
	// InstApplied is how many institutional-list addresses were actually
	// present in the capture (see evstore.MarkInstitutional); zero for a
	// non-empty list means the intel list does not overlap the capture.
	InstApplied int
	Feeds       map[string]*intel.Feed
	// Bus is the event-transport counter snapshot from the collection
	// run: how the events reached the store, not what they contain.
	Bus bus.Stats

	mu       sync.Mutex
	clusters map[string]*clustered
}

// clustered caches the per-DBMS clustering work shared by T8/T9/A1/A2.
type clustered struct {
	seqs   []cluster.Sequence
	raws   map[string][]string
	result cluster.Result
}

// Build runs the simulation and assembles the dataset.
func Build(ctx context.Context, seed int64, scale int) (*Dataset, error) {
	store := evstore.New(core.ExperimentStart, core.ExperimentDays, geoip.Default())
	res, err := simnet.Run(ctx, simnet.Config{Seed: seed, Scale: scale}, store)
	if err != nil {
		return nil, fmt.Errorf("experiments: simulation: %w", err)
	}
	// Apply the institutional scanner list, as the paper applies the
	// list from Griffioen et al.
	applied := store.MarkInstitutional(res.Population.Institutional)

	snap := store.Snapshot()
	ds := &Dataset{
		Seed:        seed,
		Scale:       scale,
		Snap:        snap,
		Recs:        snap.Recs(),
		Pop:         res.Population,
		InstApplied: applied,
		Bus:         res.Bus,
		clusters:    map[string]*clustered{},
	}
	ds.Feeds = buildFeeds(seed, res.Population)
	return ds, nil
}

// buildFeeds snapshots the threat-intel platforms with the coverage the
// paper measured: brute-forcers are widely known (though often unflagged),
// the medium/high exploiters largely are not.
func buildFeeds(seed int64, pop *simnet.Population) map[string]*intel.Feed {
	mk := func(name string, bruteCov, expCov intel.Coverage, s int64) *intel.Feed {
		f := intel.BuildFeed(name, pop.BruteForcers, bruteCov, s)
		f.AddAll(intel.BuildFeed(name, pop.Exploiters, expCov, s+1))
		return f
	}
	return map[string]*intel.Feed{
		intel.GreyNoise: mk(intel.GreyNoise,
			intel.Coverage{ListedFrac: 0.90, MaliciousFrac: 0.23, Tags: []string{"MSSQL bruteforcer", "scanner"}},
			intel.Coverage{ListedFrac: 0.50, MaliciousFrac: 0.23, Tags: []string{"unrelated CVE", "scanner"}},
			seed^0x11),
		intel.AbuseIPDB: mk(intel.AbuseIPDB,
			intel.Coverage{ListedFrac: 0.65, MaliciousFrac: 1, Tags: []string{"port scan", "brute-force"}},
			intel.Coverage{ListedFrac: 0.15, MaliciousFrac: 1, Tags: []string{"port scan", "SQL injection"}},
			seed^0x22),
		intel.TeamCymru: mk(intel.TeamCymru,
			intel.Coverage{ListedFrac: 0.48, MaliciousFrac: 1, Tags: []string{"suspicious"}},
			intel.Coverage{ListedFrac: 0.02, MaliciousFrac: 1, Tags: []string{"suspicious"}},
			seed^0x33),
		intel.FEODO: mk(intel.FEODO,
			intel.Coverage{}, intel.Coverage{}, seed^0x44),
	}
}

// ClusterThreshold is the dendrogram cut height for behaviour grouping.
// TF vectors are L1-normalised, so identical action mixes sit at distance
// zero and near-identical bot runs very close by.
const ClusterThreshold = 0.02

// ClusterFor returns (cached) TF+Ward clustering of the medium/high
// activity on one DBMS.
func (d *Dataset) ClusterFor(dbms string) (cluster.Result, map[string][]string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.clusters[dbms]; ok {
		return c.result, c.raws
	}
	var seqs []cluster.Sequence
	raws := map[string][]string{}
	for _, r := range d.Recs {
		var actions []string
		var rawList []string
		// Deterministic order over configs.
		keys := make([]evstore.PerKey, 0, len(r.Per))
		for k := range r.Per {
			if k.Level >= core.Medium && k.DBMS == dbms {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			continue
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Config < keys[j].Config })
		for _, k := range keys {
			act := r.Per[k]
			for _, a := range act.Actions {
				actions = append(actions, a.Name)
				if a.Raw != "" {
					rawList = append(rawList, a.Raw)
				}
			}
			// Login attempts are terms in the paper's documents too —
			// brute-force behaviour is invisible without them. Token
			// counts are capped so heavy brute-forcers stay comparable.
			for i := int64(0); i < act.Logins-act.LoginOK && i < 64; i++ {
				actions = append(actions, "LOGIN-FAIL")
			}
			for i := int64(0); i < act.LoginOK && i < 64; i++ {
				actions = append(actions, "LOGIN-OK")
			}
		}
		id := r.Addr.String()
		seqs = append(seqs, cluster.Sequence{ID: id, Actions: actions})
		raws[id] = rawList
	}
	res := cluster.Run(seqs, ClusterThreshold)
	d.clusters[dbms] = &clustered{seqs: seqs, raws: raws, result: res}
	return res, raws
}
