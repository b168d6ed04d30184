package simnet

import (
	"context"
	"testing"

	"decoydb/internal/classify"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/geoip"
)

func TestBuildPopulationTotals(t *testing.T) {
	pop, err := BuildPopulation(7, 64, 20, geoip.Default())
	if err != nil {
		t.Fatal(err)
	}
	var low, brute, inst int
	seen := map[string]bool{}
	for _, a := range pop.Actors {
		if seen[a.Addr.String()] {
			t.Fatalf("duplicate actor address %v", a.Addr)
		}
		seen[a.Addr.String()] = true
		if a.LowGroups != 0 {
			low++
		}
		if a.Brute != nil {
			brute++
		}
		if a.Institutional && a.LowGroups != 0 {
			inst++
		}
		if len(a.Days) == 0 {
			t.Fatalf("actor %v has no active days", a.Addr)
		}
	}
	if low != LowTierIPs {
		t.Fatalf("low-tier actors = %d, want %d", low, LowTierIPs)
	}
	if brute != BruteForcers {
		t.Fatalf("brute actors = %d, want %d", brute, BruteForcers)
	}
	if inst != LowInstitutional {
		t.Fatalf("institutional low actors = %d, want %d", inst, LowInstitutional)
	}
	if got := len(pop.Exploiters); got != 324 {
		t.Fatalf("exploiters = %d, want 324", got)
	}
}

func TestBuildPopulationControlGroupSplit(t *testing.T) {
	pop, err := BuildPopulation(7, 64, 20, geoip.Default())
	if err != nil {
		t.Fatal(err)
	}
	var single, multi, both int
	var bruteSingle, bruteMulti, bruteBoth int
	for _, a := range pop.Actors {
		switch a.LowGroups {
		case targetSingleOnly:
			single++
		case targetMultiOnly:
			multi++
		case targetBoth:
			both++
		}
		if a.Brute != nil {
			if a.LowGroups != targetBoth {
				t.Fatalf("brute actor %v has connection mode %d", a.Addr, a.LowGroups)
			}
			switch a.Brute.Groups {
			case targetSingleOnly:
				bruteSingle++
			case targetMultiOnly:
				bruteMulti++
			default:
				bruteBoth++
			}
		}
	}
	if single != SingleOnlyIPs || both != BothGroupIPs {
		t.Fatalf("split = single %d / both %d, want %d / %d", single, both, SingleOnlyIPs, BothGroupIPs)
	}
	if multi != LowTierIPs-SingleOnlyIPs-BothGroupIPs {
		t.Fatalf("multi-only = %d", multi)
	}
	if bruteSingle != BruteSingleOnly || bruteMulti != BruteMultiOnly {
		t.Fatalf("brute split = %d/%d, want %d/%d", bruteSingle, bruteMulti, BruteSingleOnly, BruteMultiOnly)
	}
}

func TestBuildPopulationDeterministic(t *testing.T) {
	a, err := BuildPopulation(11, 64, 20, geoip.Default())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPopulation(11, 64, 20, geoip.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Actors) != len(b.Actors) {
		t.Fatalf("actor counts differ: %d vs %d", len(a.Actors), len(b.Actors))
	}
	for i := range a.Actors {
		x, y := a.Actors[i], b.Actors[i]
		if x.Addr != y.Addr || x.Seed != y.Seed || len(x.Days) != len(y.Days) {
			t.Fatalf("actor %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestHeavyBruteForcers(t *testing.T) {
	pop, err := BuildPopulation(3, 64, 20, geoip.Default())
	if err != nil {
		t.Fatal(err)
	}
	var heavies []*Actor
	for _, a := range pop.Actors {
		if a.Brute != nil && a.Brute.Heavy {
			heavies = append(heavies, a)
		}
	}
	if len(heavies) != 4 {
		t.Fatalf("heavy brute-forcers = %d, want 4", len(heavies))
	}
	for _, a := range heavies {
		if a.ASN != 208091 || a.Country != "RU" {
			t.Fatalf("heavy actor origin = AS%d %s", a.ASN, a.Country)
		}
		if len(a.Days) < 16 || len(a.Days) > 19 {
			t.Fatalf("heavy actor active days = %d, want 16-19", len(a.Days))
		}
		// At scale 64: ~4.157M/64 ≈ 65k attempts.
		if a.Brute.MSSQL < 50000 || a.Brute.MSSQL > 80000 {
			t.Fatalf("heavy actor attempts = %d at scale 64", a.Brute.MSSQL)
		}
	}
}

func TestCredStream(t *testing.T) {
	c := newCredCorpus(1, 1)
	if len(c.users) != UniqueUsernames || len(c.passes) != UniquePasswords {
		t.Fatalf("corpus sizes = %d/%d", len(c.users), len(c.passes))
	}
	s := c.stream(42, topMSSQLCreds, "sa")
	u, p := s.next()
	if u != "sa" || p != "123" {
		t.Fatalf("first attempt = %s/%s, want sa/123 (default creds first)", u, p)
	}
	// The top-10 list is walked before the dictionary.
	for i := 1; i < 10; i++ {
		u, p = s.next()
		if [2]string{u, p} != topMSSQLCreds[i] {
			t.Fatalf("attempt %d = %s/%s", i, u, p)
		}
	}
	// Dictionary phase: mostly the default admin user.
	saCount := 0
	uniquePass := map[string]bool{}
	for i := 0; i < 1000; i++ {
		u, p = s.next()
		if u == "sa" {
			saCount++
		}
		uniquePass[p] = true
	}
	if saCount < 700 {
		t.Fatalf("sa share = %d/1000", saCount)
	}
	if len(uniquePass) < 500 {
		t.Fatalf("unique passwords in walk = %d", len(uniquePass))
	}
}

func TestCredCorpusScaling(t *testing.T) {
	c := newCredCorpus(1, 64)
	if len(c.users) != UniqueUsernames/64 || len(c.passes) != UniquePasswords/64 {
		t.Fatalf("scaled corpus = %d/%d", len(c.users), len(c.passes))
	}
	tiny := newCredCorpus(1, 1<<20)
	if len(tiny.users) < 40 || len(tiny.passes) < 400 {
		t.Fatalf("floor sizes = %d/%d", len(tiny.users), len(tiny.passes))
	}
}

// shortRunConfig compresses the integration runs for -short: a reduced
// virtual window and a higher brute-force divisor. Population quotas
// (actor counts, targeting splits, credential ordering) are invariant
// under both knobs, so the assertions stay meaningful — only the exact
// Table 8 behaviour quotas need the full 20-day window.
func shortRunConfig(seed int64) Config {
	return Config{Seed: seed, Scale: 1 << 14, Days: 3}
}

// TestRunSmall is the full-system integration test: run the entire
// simulated deployment and verify the dataset matches the
// paper-calibrated population quotas. Under -short it runs a compressed
// window (6 virtual days, higher scale divisor); the exact Table 8
// quota checks stay behind the full (long-mode) 20-day run.
func TestRunSmall(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 4096}
	if testing.Short() {
		cfg = shortRunConfig(1)
	}
	days := cfg.withDefaults().Days
	store := evstore.New(core.ExperimentStart, days, geoip.Default())
	res, err := Run(context.Background(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions == 0 {
		t.Fatal("no sessions executed")
	}
	if float64(res.Errors) > 0.01*float64(res.Sessions) {
		t.Fatalf("error rate too high: %d/%d", res.Errors, res.Sessions)
	}

	// The event transport must be lossless in block mode, and every
	// enqueued event must have reached the store.
	if res.Bus.Dropped != 0 {
		t.Fatalf("bus dropped %d events in block mode", res.Bus.Dropped)
	}
	if res.Bus.Delivered != res.Bus.Enqueued {
		t.Fatalf("bus delivered %d of %d enqueued", res.Bus.Delivered, res.Bus.Enqueued)
	}
	if got := store.Events(); got != int64(res.Bus.Delivered) {
		t.Fatalf("store has %d events, bus delivered %d", got, res.Bus.Delivered)
	}

	recs := store.IPs()
	var low int
	for _, r := range recs {
		for k := range r.Per {
			if k.Level == core.Low {
				low++
				break
			}
		}
	}
	if low != LowTierIPs {
		t.Fatalf("low-tier unique IPs = %d, want %d", low, LowTierIPs)
	}

	if !testing.Short() {
		// Table 8 quotas must be exact: the classifier operates on real
		// captured traffic, so this validates the whole chain.
		for dbms, want := range mhTargets {
			c := classify.Count(recs, classify.ForDBMS(dbms))
			if c.Scanning != want.Scanning || c.Scouting != want.Scouting || c.Exploiting != want.Exploiting {
				t.Errorf("%s: got %d/%d/%d, want %d/%d/%d", dbms,
					c.Scanning, c.Scouting, c.Exploiting,
					want.Scanning, want.Scouting, want.Exploiting)
			}
		}
	}

	// MSSQL dominates logins; Redis sees none (paper Section 5).
	if store.Snapshot().Logins(evstore.Query{DBMS: core.Redis, Tier: evstore.LowTier}) != 0 {
		t.Error("redis logins observed on low tier")
	}
	mssql := store.Snapshot().Logins(evstore.Query{DBMS: core.MSSQL, Tier: evstore.LowTier})
	total := store.Snapshot().Logins(evstore.Query{Tier: evstore.LowTier})
	if float64(mssql)/float64(total) < 0.9 {
		t.Errorf("MSSQL login share = %d/%d", mssql, total)
	}

	// Top credential is sa/123 (Table 12).
	creds := store.Snapshot().Creds(evstore.Query{DBMS: core.MSSQL, Tier: evstore.LowTier}, 0)
	if len(creds) == 0 || creds[0].User != "sa" || creds[0].Pass != "123" {
		t.Errorf("top credential = %+v", creds[0])
	}
}

func TestRunDeterministicDataset(t *testing.T) {
	cfg := Config{Seed: 5, Scale: 1 << 14}
	if testing.Short() {
		cfg = shortRunConfig(5)
	}
	days := cfg.withDefaults().Days
	run := func() *evstore.Store {
		store := evstore.New(core.ExperimentStart, days, geoip.Default())
		if _, err := Run(context.Background(), cfg, store); err != nil {
			t.Fatal(err)
		}
		return store
	}
	a, b := run(), run()
	if a.Events() != b.Events() {
		t.Fatalf("event counts differ: %d vs %d", a.Events(), b.Events())
	}
	if a.Snapshot().Logins(evstore.Query{}) != b.Snapshot().Logins(evstore.Query{}) {
		t.Fatalf("login totals differ")
	}
	ra, rb := a.IPs(), b.IPs()
	if len(ra) != len(rb) {
		t.Fatalf("IP counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Addr != rb[i].Addr || ra[i].TotalLogins() != rb[i].TotalLogins() {
			t.Fatalf("record %d differs: %v vs %v", i, ra[i].Addr, rb[i].Addr)
		}
	}
}

func TestBuildHoneypots(t *testing.T) {
	hps := BuildHoneypots(core.DefaultDeployment(), 1)
	if len(hps) != 278 {
		t.Fatalf("handlers = %d, want 278", len(hps))
	}
}

func TestBuildHoneypotsExtended(t *testing.T) {
	hps := BuildHoneypots(core.ExtendedDeployment(), 1)
	if len(hps) != 288 {
		t.Fatalf("handlers = %d, want 288", len(hps))
	}
}
