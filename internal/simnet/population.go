// Population generation: turns the calibration tables into a concrete,
// seeded set of actors with addresses drawn from the GeoIP allocation
// plan, activity-day schedules, brute-force volumes and campaign roles.
package simnet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"decoydb/internal/core"
	"decoydb/internal/geoip"
)

// Group-targeting modes for low-tier actors (control-group experiment).
const (
	targetSingleOnly = iota + 1
	targetMultiOnly
	targetBoth
)

// BruteSpec describes a brute-forcer's login volume (already scaled).
type BruteSpec struct {
	MySQL  int64
	MSSQL  int64
	PSQL   int64
	Heavy  bool
	Groups int // targetSingleOnly / targetMultiOnly / targetBoth
}

// Total returns the summed attempts.
func (b *BruteSpec) Total() int64 { return b.MySQL + b.MSSQL + b.PSQL }

// MHSpec is one medium/high-tier behaviour of an actor.
type MHSpec struct {
	DBMS string
	Kind string // one of the kind* constants
}

// Medium/high behaviour kinds.
const (
	kindScan      = "scan"
	kindScout     = "scout"
	kindDeepScout = "deepscout"
	kindRDP       = "rdp"
	kindJDWP      = "jdwp"
	kindP2PInfect = "p2pinfect"
	kindABCbot    = "abcbot"
	kindRedisCVE  = "rediscve"
	kindVandal    = "redisvandal"
	kindKinsing   = "kinsing"
	kindPrivilege = "privilege"
	kindLucifer   = "lucifer"
	kindCraft     = "craft"
	kindVMware    = "vmware"
	kindRedisBF   = "redisbrute"
	kindPGBrute   = "pgbrute"
	kindRansomA   = "ransom0"
	kindRansomB   = "ransom1"
)

// exploitKinds marks which behaviour kinds the paper classifies as
// exploitation (Table 9 bottom half).
var exploitKinds = map[string]bool{
	kindP2PInfect: true, kindABCbot: true, kindRedisCVE: true, kindVandal: true,
	kindKinsing: true, kindPrivilege: true, kindLucifer: true,
	kindRansomA: true, kindRansomB: true,
}

// Actor is one simulated source IP.
type Actor struct {
	Addr          netip.Addr
	Country       string
	ASN           uint32
	Institutional bool
	Days          []int // sorted active days
	HoursPerDay   int   // distinct activity hours per active day

	LowGroups int        // 0 = not on low tier
	Brute     *BruteSpec // nil unless brute-forcing
	MH        []MHSpec

	Seed int64 // per-actor RNG seed for payload variation
}

// IsExploiter reports whether any behaviour is an exploitation campaign.
func (a *Actor) IsExploiter() bool {
	for _, m := range a.MH {
		if exploitKinds[m.Kind] {
			return true
		}
	}
	return false
}

// Population is the complete actor set for one run.
type Population struct {
	Actors        []*Actor
	Institutional []netip.Addr // the "institutional scanner list"
	BruteForcers  []netip.Addr
	Exploiters    []netip.Addr
}

// addrPool hands out unique addresses from the GeoIP allocation plan.
type addrPool struct {
	db    *geoip.DB
	next  map[netip.Prefix]uint32
	slots map[addrSlot][]geoip.Allocation // candidates per slot, found once
	r     *rand.Rand
}

// addrSlot is one (ASN, country) cell of the calibration tables.
type addrSlot struct {
	asn     uint32
	country string
}

func newAddrPool(db *geoip.DB, r *rand.Rand) *addrPool {
	return &addrPool{db: db, next: make(map[netip.Prefix]uint32), slots: make(map[addrSlot][]geoip.Allocation), r: r}
}

// candidates returns the allocations a slot draws from: the exact
// (asn, country) matches, else the country's unmapped space, else the
// whole country, so calibration slots never fail. Each slot's list is
// computed on its first use and kept.
func (p *addrPool) candidates(asn uint32, country string) []geoip.Allocation {
	slot := addrSlot{asn, country}
	if c, ok := p.slots[slot]; ok {
		return c
	}
	in := p.db.In(country)
	var c []geoip.Allocation
	for _, want := range []uint32{asn, 0} {
		for _, a := range in {
			if a.ASN == want {
				c = append(c, a)
			}
		}
		if len(c) > 0 {
			break
		}
	}
	if len(c) == 0 {
		c = in
	}
	p.slots[slot] = c
	return c
}

// take returns a fresh address in the given (asn, country) slot.
func (p *addrPool) take(asn uint32, country string) (netip.Addr, error) {
	candidates := p.candidates(asn, country)
	if len(candidates) == 0 {
		return netip.Addr{}, fmt.Errorf("simnet: no allocation for AS%d/%s", asn, country)
	}
	alloc := candidates[p.r.Intn(len(candidates))]
	p.next[alloc.Prefix]++
	off := p.next[alloc.Prefix]
	base := alloc.Prefix.Addr().As4()
	v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	v += off
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}), nil
}

// BuildPopulation generates the full actor set. scale divides login
// volumes (1 = paper volume); days is the experiment length.
func BuildPopulation(seed int64, scale int, days int, db *geoip.DB) (*Population, error) {
	if scale < 1 {
		scale = 1
	}
	r := rand.New(rand.NewSource(seed))
	pool := newAddrPool(db, r)
	pop := &Population{}

	mk := func(asn uint32, country string) (*Actor, error) {
		addr, err := pool.take(asn, country)
		if err != nil {
			return nil, err
		}
		rec, ok := db.Lookup(addr)
		if !ok {
			return nil, fmt.Errorf("simnet: generated unmapped address %v", addr)
		}
		a := &Actor{Addr: addr, Country: rec.Country, ASN: rec.ASN, Seed: r.Int63()}
		pop.Actors = append(pop.Actors, a)
		return a, nil
	}

	if err := buildLowTier(r, scale, days, pop, mk); err != nil {
		return nil, err
	}
	if err := buildMediumHigh(r, days, pop, mk); err != nil {
		return nil, err
	}

	for _, a := range pop.Actors {
		if a.Institutional {
			pop.Institutional = append(pop.Institutional, a.Addr)
		}
		if a.Brute != nil {
			pop.BruteForcers = append(pop.BruteForcers, a.Addr)
		}
		if a.IsExploiter() {
			pop.Exploiters = append(pop.Exploiters, a.Addr)
		}
	}
	sort.Slice(pop.Actors, func(i, j int) bool { return pop.Actors[i].Addr.Less(pop.Actors[j].Addr) })
	return pop, nil
}

// buildLowTier instantiates the 3,340 low-interaction sources.
func buildLowTier(r *rand.Rand, scale, days int, pop *Population, mk func(uint32, string) (*Actor, error)) error {
	groups := make([]lowGroup, len(lowGroups))
	copy(groups, lowGroups)

	// Filler group: pad the population to the exact paper total.
	var n, brute, inst int
	for _, g := range groups {
		n += g.n
		brute += g.brute
		inst += g.inst
	}
	if n > LowTierIPs || brute > BruteForcers || inst > LowInstitutional {
		return fmt.Errorf("simnet: calibration exceeds targets (n=%d brute=%d inst=%d)", n, brute, inst)
	}
	fillN := LowTierIPs - n
	fillBrute := BruteForcers - brute
	fillInst := LowInstitutional - inst
	for i, c := range fillerCountries {
		gn := fillN / len(fillerCountries)
		gb := fillBrute / len(fillerCountries)
		if i == len(fillerCountries)-1 {
			gn = fillN - gn*(len(fillerCountries)-1)
			gb = fillBrute - gb*(len(fillerCountries)-1)
		}
		groups = append(groups, lowGroup{asn: 0, country: c, n: gn, brute: gb, mssqlLogins: int64(gb) * 60})
	}
	// Any residual institutional quota goes to the largest scanner block.
	groups[0].inst += fillInst

	var lowActors []*Actor
	var nonBrute []*Actor
	for _, g := range groups {
		perBrute := [3]int64{} // mysql, mssql, psql per brute actor
		if g.brute > 0 {
			perBrute[0] = g.mysqlLogins / int64(g.brute)
			perBrute[1] = g.mssqlLogins / int64(g.brute)
			perBrute[2] = g.psqlLogins / int64(g.brute)
		}
		for i := 0; i < g.n; i++ {
			a, err := mk(g.asn, g.country)
			if err != nil {
				return err
			}
			a.LowGroups = targetBoth // refined below
			lowActors = append(lowActors, a)
			isBrute := i < g.brute
			// Institutional actors come from the tail of the block; a
			// block may mark a brute-forcer institutional too (the paper
			// observed logins from a security company's AS, Table 6).
			isInst := g.n-i <= g.inst
			if isInst {
				a.Institutional = true
			}
			switch {
			case isBrute:
				spec := &BruteSpec{
					MySQL: scaled(perBrute[0], scale, r),
					MSSQL: scaled(perBrute[1], scale, r),
					PSQL:  perBrute[2], // single-combo repeats: never scaled away
					Heavy: g.heavy,
				}
				a.Brute = spec
				if g.heavy {
					a.Days = pickDays(r, days, 16+r.Intn(4)) // 16–19 of 20 days
					a.HoursPerDay = 24
				} else {
					a.Days = pickDays(r, days, 1+r.Intn(3))
					a.HoursPerDay = 1 + r.Intn(3)
				}
			case isInst:
				// Institutional sweeps recur, but a sizeable minority is
				// seen once (one-off research scans).
				if r.Float64() < 0.25 {
					a.Days = pickDays(r, days, 1)
				} else {
					a.Days = pickDays(r, days, 2+r.Intn(4))
				}
				a.HoursPerDay = 2 + r.Intn(2)
			default:
				// 70% of ordinary scanners appear on a single day; with
				// the institutional and brute-force mixes this lands the
				// overall single-day share at the paper's 43%.
				if r.Float64() < 0.70 {
					a.Days = pickDays(r, days, 1)
					a.HoursPerDay = 1 + r.Intn(2)
				} else {
					a.Days = pickDays(r, days, 2+r.Intn(4))
					a.HoursPerDay = 2 + r.Intn(2)
				}
				nonBrute = append(nonBrute, a)
			}
			if isInst && !isBrute {
				nonBrute = append(nonBrute, a)
			}
		}
	}

	// Control-group split: brute actors connect to both groups; the
	// remaining "both" quota, then single-only, comes from shuffled
	// non-brute actors; everyone else is multi-only.
	r.Shuffle(len(nonBrute), func(i, j int) { nonBrute[i], nonBrute[j] = nonBrute[j], nonBrute[i] })
	bothQuota := BothGroupIPs - BruteForcers
	for i, a := range nonBrute {
		switch {
		case i < bothQuota:
			a.LowGroups = targetBoth
		case i < bothQuota+SingleOnlyIPs:
			a.LowGroups = targetSingleOnly
		default:
			a.LowGroups = targetMultiOnly
		}
	}
	// Brute-force group asymmetry: 41 brute single hosts only, 295 multi
	// hosts only, the rest both.
	var brutes []*Actor
	for _, a := range lowActors {
		if a.Brute == nil {
			continue
		}
		if a.Brute.Heavy {
			// The heavy AS208091 sources hammer everything.
			a.Brute.Groups = targetBoth
			continue
		}
		brutes = append(brutes, a)
	}
	r.Shuffle(len(brutes), func(i, j int) { brutes[i], brutes[j] = brutes[j], brutes[i] })
	for i, a := range brutes {
		switch {
		case i < BruteSingleOnly:
			a.Brute.Groups = targetSingleOnly
		case i < BruteSingleOnly+BruteMultiOnly:
			a.Brute.Groups = targetMultiOnly
		default:
			a.Brute.Groups = targetBoth
		}
	}
	return nil
}

func scaled(v int64, scale int, r *rand.Rand) int64 {
	if v == 0 {
		return 0
	}
	out := v / int64(scale)
	if out == 0 {
		// Keep at least one attempt so the actor remains a brute-forcer
		// at any scale.
		out = 1
	}
	// ±10% jitter so per-actor volumes are not suspiciously uniform.
	j := 1 + (r.Float64()-0.5)*0.2
	out = int64(float64(out) * j)
	if out < 1 {
		out = 1
	}
	return out
}

func pickDays(r *rand.Rand, total, n int) []int {
	if n >= total {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := r.Perm(total)[:n]
	sort.Ints(perm)
	return perm
}

// buildMediumHigh instantiates the medium/high-tier population: campaign
// actors plus generic scanners and scouts sized to the Table 8 quotas.
func buildMediumHigh(r *rand.Rand, days int, pop *Population, mk func(uint32, string) (*Actor, error)) error {
	addMH := func(a *Actor, kind string, dbms ...string) {
		for _, d := range dbms {
			a.MH = append(a.MH, MHSpec{DBMS: d, Kind: kind})
		}
	}
	fromSlots := func(slots []geoSlot, kind string, dbms string, dMin, dMax int) error {
		for _, s := range slots {
			for i := 0; i < s.n; i++ {
				a, err := mk(s.asn, s.country)
				if err != nil {
					return err
				}
				addMH(a, kind, dbms)
				a.Days = pickDays(r, days, dMin+r.Intn(dMax-dMin+1))
				a.HoursPerDay = 1
			}
		}
		return nil
	}

	// --- Campaigns (Table 9) ---
	if err := fromSlots(p2pinfectGeo, kindP2PInfect, core.Redis, 3, 10); err != nil {
		return err
	}
	if err := fromSlots([]geoSlot{{4134, "CN", nABCbot}}, kindABCbot, core.Redis, 2, 4); err != nil {
		return err
	}
	if err := fromSlots([]geoSlot{{4812, "CN", nRedisCVE}}, kindRedisCVE, core.Redis, 1, 2); err != nil {
		return err
	}
	if err := fromSlots([]geoSlot{{135905, "VN", nRedisVandal}}, kindVandal, core.Redis, 1, 2); err != nil {
		return err
	}
	if err := fromSlots(kinsingGeo, kindKinsing, core.Postgres, 2, 10); err != nil {
		return err
	}
	if err := fromSlots(privilegeGeo, kindPrivilege, core.Postgres, 2, 8); err != nil {
		return err
	}
	if err := fromSlots([]geoSlot{{4134, "CN", nLucifer}}, kindLucifer, core.Elastic, 2, 6); err != nil {
		return err
	}
	if err := fromSlots(ransomAGeo, kindRansomA, core.MongoDB, 4, 12); err != nil {
		return err
	}
	if err := fromSlots(ransomBGeo, kindRansomB, core.MongoDB, 4, 12); err != nil {
		return err
	}
	// RDP scans: the first nRDPBoth actors also probe Redis (Figure 4).
	rdpLeft := nRDPScan
	both := nRDPBoth
	for _, s := range rdpGeo {
		for i := 0; i < s.n && rdpLeft > 0; i++ {
			a, err := mk(s.asn, s.country)
			if err != nil {
				return err
			}
			if both > 0 {
				addMH(a, kindRDP, core.Postgres, core.Redis)
				both--
			} else {
				addMH(a, kindRDP, core.Postgres)
			}
			a.Days = pickDays(r, days, 1+r.Intn(4))
			a.HoursPerDay = 1
			rdpLeft--
		}
	}
	if err := fromSlots([]geoSlot{{0, "CN", nJDWPScan}}, kindJDWP, core.Redis, 1, 2); err != nil {
		return err
	}
	if err := fromSlots([]geoSlot{{4134, "CN", 3}, {135905, "VN", 2}}, kindRedisBF, core.Redis, 1, 3); err != nil {
		return err
	}
	if err := fromSlots([]geoSlot{
		{24940, "DE", 20}, {16276, "FR", 15}, {20473, "US", 20},
		{12389, "RU", 9}, {262287, "BR", 10}, {135905, "VN", 10},
	}, kindPGBrute, core.Postgres, 2, 8); err != nil {
		return err
	}
	if err := fromSlots([]geoSlot{{398324, "US", nCraftCMS}}, kindCraft, core.Elastic, 1, 2); err != nil {
		return err
	}
	if err := fromSlots([]geoSlot{{20473, "US", 8}, {24940, "DE", 4}, {0, "JP", 3}}, kindVMware, core.Elastic, 1, 3); err != nil {
		return err
	}

	// --- Generic scanners and scouts, sized to Table 8 quotas ---
	type block struct {
		n      int
		inst   bool
		origin string            // "scan" (default), "scout", "deepscout"
		kind   map[string]string // dbms -> behaviour kind
	}
	el, mdb, pg, rd := core.Elastic, core.MongoDB, core.Postgres, core.Redis
	blocks := []block{
		{n: 360, inst: true, kind: map[string]string{el: kindScan, mdb: kindScan, pg: kindScan, rd: kindScan}},
		{n: 55, inst: true, kind: map[string]string{el: kindScan, mdb: kindScan, pg: kindScan}},
		{n: 41, inst: true, kind: map[string]string{el: kindScan, pg: kindScan}},
		{n: 253, inst: true, kind: map[string]string{pg: kindScan}},
		{n: 19, inst: true, kind: map[string]string{rd: kindScan}},
		{n: 200, inst: true, kind: map[string]string{pg: kindScan, mdb: kindDeepScout}},
		{n: 80, kind: map[string]string{pg: kindScan, rd: kindScan}},
		{n: 152, kind: map[string]string{el: kindScan}},
		{n: 291, kind: map[string]string{mdb: kindScan}},
		{n: 151, kind: map[string]string{pg: kindScan}},
		{n: 67, kind: map[string]string{rd: kindScan}},
		{n: 150, kind: map[string]string{rd: kindScan, el: kindScout}},
		{n: 30, inst: true, origin: "deepscout", kind: map[string]string{el: kindDeepScout, mdb: kindDeepScout}},
		{n: 140, inst: true, origin: "deepscout", kind: map[string]string{el: kindDeepScout}},
		{n: 104, inst: true, origin: "deepscout", kind: map[string]string{mdb: kindDeepScout}},
		{n: 290, origin: "scout", kind: map[string]string{el: kindScout}},
		{n: 131, origin: "scout", kind: map[string]string{mdb: kindScout}},
		{n: 345, origin: "scout", kind: map[string]string{pg: kindScout}},
		{n: 245, origin: "scout", kind: map[string]string{rd: kindScout}},
	}
	for _, b := range blocks {
		for i := 0; i < b.n; i++ {
			asn, country := mhOrigin(r, b.origin, b.inst)
			a, err := mk(asn, country)
			if err != nil {
				return err
			}
			a.Institutional = b.inst
			// Deterministic iteration order over the kind map.
			dbmses := make([]string, 0, len(b.kind))
			for d := range b.kind {
				dbmses = append(dbmses, d)
			}
			sort.Strings(dbmses)
			scoutish := false
			for _, d := range dbmses {
				addMH(a, b.kind[d], d)
				if b.kind[d] != kindScan {
					scoutish = true
				}
			}
			switch {
			case b.inst:
				a.Days = pickDays(r, days, 2+r.Intn(4))
			case scoutish:
				a.Days = pickDays(r, days, 1+r.Intn(6))
			default:
				a.Days = pickDays(r, days, 1+r.Intn(3))
			}
			a.HoursPerDay = 1
		}
	}
	return nil
}

// mhOrigin draws an (ASN, country) for a generic medium/high actor,
// weighted to reproduce Table 11's AS-type mix: scanning is dominated by
// Hosting and Telecom (institutional scan infrastructure largely rents
// cloud space), scouting adds large Security and Unknown shares, and the
// deep scouts are the named security organisations themselves.
func mhOrigin(r *rand.Rand, origin string, inst bool) (uint32, string) {
	switch origin {
	case "deepscout":
		if r.Float64() < 0.92 {
			return pick(r, securitySlots)
		}
		return pick(r, hostingSlots)
	case "scout":
		switch x := r.Float64(); {
		case x < 0.08:
			return pick(r, telecomSlots)
		case x < 0.70:
			return pick(r, hostingSlots)
		case x < 0.92:
			return pick(r, unknownSlots)
		case x < 0.96:
			return pick(r, ipserviceSlots)
		default:
			return pick(r, ictSlots)
		}
	}
	// Scanners.
	if inst {
		switch x := r.Float64(); {
		case x < 0.37:
			return pick(r, telecomSlots)
		case x < 0.96:
			return pick(r, hostingSlots)
		default:
			return pick(r, securitySlots)
		}
	}
	switch x := r.Float64(); {
	case x < 0.33:
		return pick(r, telecomSlots)
	case x < 0.87:
		return pick(r, hostingSlots)
	case x < 0.98:
		return pick(r, unknownSlots)
	default:
		return pick(r, securitySlots)
	}
}

var telecomSlots = []geoSlot{
	{4134, "CN", 0}, {4837, "CN", 0}, {4812, "CN", 0}, {7922, "US", 0},
	{3320, "DE", 0}, {3215, "FR", 0}, {2856, "GB", 0}, {1136, "NL", 0},
	{7473, "SG", 0}, {7713, "ID", 0}, {12389, "RU", 0}, {9829, "IN", 0},
	{4766, "KR", 0},
}

var hostingSlots = []geoSlot{
	{396982, "US", 0}, {14061, "US", 0}, {16509, "US", 0}, {20473, "US", 0},
	{24940, "DE", 0}, {51167, "DE", 0}, {16276, "FR", 0}, {12876, "FR", 0},
	{49981, "NL", 0}, {57043, "NL", 0}, {34224, "BG", 0}, {45102, "CN", 0},
	{132203, "CN", 0}, {63949, "US", 0}, {8075, "US", 0}, {14061, "SG", 0},
	{14061, "IN", 0}, {44477, "NL", 0}, {35048, "RU", 0},
}

var securitySlots = []geoSlot{
	{398324, "US", 0}, {395092, "US", 0}, {59113, "US", 0},
	{37153, "PT", 0}, {48693, "US", 0}, {64496, "US", 0}, {211298, "GB", 0},
}

var unknownSlots = []geoSlot{
	{0, "US", 0}, {0, "CN", 0}, {0, "BR", 0}, {0, "VN", 0}, {0, "TR", 0},
	{0, "IN", 0}, {0, "JP", 0}, {0, "PL", 0},
}

var ipserviceSlots = []geoSlot{
	{202425, "NL", 0}, {6128, "US", 0},
}

var ictSlots = []geoSlot{
	{13335, "US", 0}, {13335, "DE", 0}, {15169, "US", 0}, {19551, "NL", 0},
}

func pick(r *rand.Rand, slots []geoSlot) (uint32, string) {
	s := slots[r.Intn(len(slots))]
	return s.asn, s.country
}
