// Package simnet simulates the Internet-facing side of the paper's
// experiment: a calibrated population of scanners, brute-forcers,
// scouts and exploitation campaigns driving real protocol traffic into
// the honeypot deployment over a virtual 20-day clock.
//
// The simulator is the substitution for live Internet exposure (see
// DESIGN.md): every interaction travels through a real net.Conn into the
// same handler code a live deployment would run, so the entire
// measurement pipeline downstream of the wire is exercised unmodified.
package simnet

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"decoydb/internal/bson"
	"decoydb/internal/bus"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/geoip"
)

// Config parameterises a run.
type Config struct {
	// Seed drives all randomness; identical configs produce identical
	// datasets.
	Seed int64
	// Scale divides brute-force login volume. 1 reproduces the paper's
	// 18.16M logins; the default (32) keeps a full run under a minute.
	Scale int
	// Days is the experiment length (default 20, max evstore.MaxDays).
	Days int
	// Deployment defaults to core.DefaultDeployment().
	Deployment *core.Deployment
	// Geo defaults to geoip.Default().
	Geo *geoip.DB
	// Bus overrides the full event-bus configuration (shard count, queue
	// sizes, policy, adaptive water marks). The zero value keeps the
	// historic behaviour: GOMAXPROCS shards, default sizes, Block policy.
	// Note that any policy other than Block makes
	// the dataset lossy under load and therefore no longer a pure
	// function of the seed.
	Bus bus.Options
	// OnBus, when set, is called with the event bus right after it is
	// built, before any session runs — the hook a binary uses to register
	// the live bus with its observability plane.
	OnBus func(*bus.Bus)
}

// DefaultScale balances fidelity and runtime for the default run.
const DefaultScale = 32

func (c Config) withDefaults() Config {
	if c.Scale < 1 {
		c.Scale = DefaultScale
	}
	if c.Days <= 0 || c.Days > evstore.MaxDays {
		c.Days = core.ExperimentDays
	}
	if c.Deployment == nil {
		c.Deployment = core.DefaultDeployment()
	}
	if c.Geo == nil {
		c.Geo = geoip.Default()
	}
	return c
}

// Result summarises a run.
type Result struct {
	Sessions   int64
	Errors     int64
	Population *Population
	Elapsed    time.Duration
	// Bus is the final event-transport counter snapshot: total events
	// enqueued/delivered, batch sizes, and per-sink delivery latency.
	Bus bus.Stats
}

// job is one scheduled client session.
type job struct {
	at     time.Time
	src    netip.AddrPort
	inst   *instance
	script Script
}

// Run executes the simulation, streaming events into the sinks.
//
// Events do not hit the sinks synchronously from session goroutines:
// they travel through a sharded bus.Bus in blocking (lossless) mode, so
// sinks receive batched deliveries off the session hot path — the same
// transport a live Farm deployment uses. The bus is drained and closed
// before Run returns, so the sinks are complete and quiescent
// afterwards. At least one sink is required.
func Run(ctx context.Context, cfg Config, sinks ...core.Sink) (*Result, error) {
	cfg = cfg.withDefaults()
	began := time.Now()

	insts := buildInstances(cfg.Deployment, cfg.Seed)
	pop, err := BuildPopulation(cfg.Seed, cfg.Scale, cfg.Days, cfg.Geo)
	if err != nil {
		return nil, err
	}
	corpus := newCredCorpus(cfg.Seed, cfg.Scale)

	// Default Block, never drop: the dataset must be a lossless function
	// of the seed for the paper's tables to reproduce. Config.Bus lets
	// robustness scenarios (see flood.go) opt into other policies.
	evbus := bus.New(cfg.Bus, sinks...)
	if cfg.OnBus != nil {
		cfg.OnBus(evbus)
	}

	// One serial queue per honeypot instance: sessions against the same
	// stateful honeypot (Redis keyspace, MongoDB store) execute in the
	// deterministic order the generator emits them, so the whole dataset
	// is a pure function of the seed. Different instances run in
	// parallel, which is also what a real deployment does.
	var sessions, errors atomic.Int64
	queues := make(map[*instance]chan job, len(insts.all))
	var wg sync.WaitGroup
	for _, in := range insts.all {
		q := make(chan job, 256)
		queues[in] = q
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range q {
				sessions.Add(1)
				if err := runSession(ctx, j, evbus); err != nil {
					errors.Add(1)
				}
			}
		}()
	}

	gen := &jobGen{
		cfg: cfg, insts: insts, corpus: corpus,
		start: core.ExperimentStart, queues: queues, ctx: ctx,
	}
	err = gen.emitAll(pop)
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	busErr := evbus.Close() // drain even on the error paths below
	for _, s := range sinks {
		// Mirror Farm.Shutdown: flushable sinks (log writers, relay
		// forwarders) quiesce before Run returns.
		if fl, ok := s.(core.Flusher); ok {
			fl.Flush()
		}
	}
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if busErr != nil {
		return nil, fmt.Errorf("simnet: event transport: %w", busErr)
	}
	return &Result{
		Sessions:   sessions.Load(),
		Errors:     errors.Load(),
		Population: pop,
		Elapsed:    time.Since(began),
		Bus:        evbus.Stats(),
	}, nil
}

// sessionDeadline bounds one simulated session in wall-clock time; a
// stuck handler/script pair must not stall the run.
const sessionDeadline = 30 * time.Second

func runSession(ctx context.Context, j job, sink core.Sink) error {
	srv, cli := net.Pipe()
	deadline := time.Now().Add(sessionDeadline)
	_ = srv.SetDeadline(deadline)
	_ = cli.SetDeadline(deadline)
	sess := core.NewSession(j.inst.info, j.src, core.FixedClock(j.at), sink)
	done := make(chan error, 1)
	go func() {
		done <- core.ServeConn(ctx, j.inst.handler, srv, sess)
	}()
	scriptErr := j.script(cli)
	cli.Close()
	srvErr := <-done
	if scriptErr != nil {
		return scriptErr
	}
	return srvErr
}

// jobGen walks the population and emits every scheduled session.
type jobGen struct {
	cfg    Config
	insts  *instSet
	corpus *credCorpus
	start  time.Time
	queues map[*instance]chan job
	ctx    context.Context
}

func (g *jobGen) emit(j job) error {
	select {
	case g.queues[j.inst] <- j:
		return nil
	case <-g.ctx.Done():
		return g.ctx.Err()
	}
}

func (g *jobGen) emitAll(pop *Population) error {
	for _, a := range pop.Actors {
		if err := g.emitActor(a); err != nil {
			return err
		}
	}
	return nil
}

func (g *jobGen) emitActor(a *Actor) error {
	r := rand.New(rand.NewSource(a.Seed))
	port := uint16(1024 + r.Intn(1000))
	nextSrc := func() netip.AddrPort {
		port++
		if port < 1024 {
			port = 1024
		}
		return netip.AddrPortFrom(a.Addr, port)
	}
	at := func(day, hour int) time.Time {
		return g.start.Add(time.Duration(day)*24*time.Hour +
			time.Duration(hour)*time.Hour +
			time.Duration(r.Intn(3600))*time.Second)
	}

	// Low-tier scanning presence.
	if a.LowGroups != 0 {
		for _, day := range a.Days {
			for h := 0; h < a.HoursPerDay; h++ {
				hour := r.Intn(24)
				targets := g.pickLowTargets(r, a.LowGroups, 2+r.Intn(5))
				for _, in := range targets {
					if err := g.emit(job{at: at(day, hour), src: nextSrc(), inst: in, script: scanClose(in.info.DBMS)}); err != nil {
						return err
					}
				}
			}
		}
	}

	// Brute-force campaigns.
	if a.Brute != nil {
		if err := g.emitBrute(a, r, nextSrc, at); err != nil {
			return err
		}
	}

	// Medium/high behaviours.
	for _, spec := range a.MH {
		if err := g.emitMH(a, spec, r, nextSrc, at); err != nil {
			return err
		}
	}
	return nil
}

// pickLowTargets selects low-tier honeypot instances consistent with the
// actor's group-targeting mode.
func (g *jobGen) pickLowTargets(r *rand.Rand, mode, n int) []*instance {
	var pools [][]*instance
	for _, dbms := range []string{core.MySQL, core.Postgres, core.Redis, core.MSSQL} {
		if mode != targetSingleOnly {
			pools = append(pools, g.insts.lowMulti[dbms])
		}
		if mode != targetMultiOnly {
			pools = append(pools, g.insts.lowSingle[dbms])
		}
	}
	out := make([]*instance, 0, n)
	for i := 0; i < n; i++ {
		pool := pools[r.Intn(len(pools))]
		if len(pool) == 0 {
			continue
		}
		out = append(out, pool[r.Intn(len(pool))])
	}
	return out
}

func (g *jobGen) bruteTarget(r *rand.Rand, dbms string, mode int) *instance {
	var pool []*instance
	switch mode {
	case targetSingleOnly:
		pool = g.insts.lowSingle[dbms]
	case targetMultiOnly:
		pool = g.insts.lowMulti[dbms]
	default:
		if r.Intn(10) == 0 {
			pool = g.insts.lowSingle[dbms]
		} else {
			pool = g.insts.lowMulti[dbms]
		}
	}
	if len(pool) == 0 {
		return nil
	}
	return pool[r.Intn(len(pool))]
}

func (g *jobGen) emitBrute(a *Actor, r *rand.Rand, nextSrc func() netip.AddrPort, at func(day, hour int) time.Time) error {
	spec := a.Brute
	type stream struct {
		dbms     string
		attempts int64
		creds    *credStream
	}
	streams := []stream{}
	if spec.MSSQL > 0 {
		streams = append(streams, stream{core.MSSQL, spec.MSSQL, g.corpus.stream(a.Seed, topMSSQLCreds, "sa")})
	}
	if spec.MySQL > 0 {
		streams = append(streams, stream{core.MySQL, spec.MySQL, g.corpus.stream(a.Seed+1, topMySQLCreds, "root")})
	}
	if spec.PSQL > 0 {
		streams = append(streams, stream{core.Postgres, spec.PSQL, nil})
	}
	days := a.Days
	if len(days) == 0 {
		days = []int{0}
	}
	for _, st := range streams {
		perDay := st.attempts / int64(len(days))
		rem := st.attempts - perDay*int64(len(days))
		for di, day := range days {
			n := perDay
			if di == 0 {
				n += rem
			}
			for i := int64(0); i < n; i++ {
				// Spread attempts across the day's hours.
				hour := int(i * 24 / max(n, 1))
				if a.HoursPerDay < 24 {
					hour = r.Intn(24)
				}
				target := g.bruteTarget(r, st.dbms, spec.Groups)
				if target == nil {
					continue
				}
				var script Script
				switch st.dbms {
				case core.MSSQL:
					u, p := st.creds.next()
					script = mssqlLogin(u, p)
				case core.MySQL:
					u, p := st.creds.next()
					script = mysqlLogin(u, p)
				case core.Postgres:
					// Single-combination behaviour the paper saw on 5432.
					script = pgLogin("postgres", "postgres", nil)
				}
				if err := g.emit(job{at: at(day, hour), src: nextSrc(), inst: target, script: script}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (g *jobGen) emitMH(a *Actor, spec MHSpec, r *rand.Rand, nextSrc func() netip.AddrPort, at func(day, hour int) time.Time) error {
	days := a.Days
	if len(days) == 0 {
		days = []int{0}
	}
	pickMed := func(dbms string) *instance {
		pool := g.insts.medAny(dbms)
		return pool[r.Intn(len(pool))]
	}
	pickMedConfig := func(dbms, config string) *instance {
		pool := g.insts.med[dbms][config]
		return pool[r.Intn(len(pool))]
	}
	c2 := fmt.Sprintf("45.%d.%d.%d", 64+r.Intn(64), r.Intn(256), 1+r.Intn(254))
	c2port := 4000 + r.Intn(5000)
	hash := fmt.Sprintf("%08x%08x", r.Uint32(), r.Uint32())

	for _, day := range days {
		hour := r.Intn(24)
		var in *instance
		var script Script
		var extra []job

		switch spec.Kind {
		case kindScan:
			in = pickMed(spec.DBMS)
			script = scanClose(spec.DBMS)
		case kindScout:
			in, script = g.scoutScript(spec.DBMS, r, rand.New(rand.NewSource(a.Seed^0x5c007)), false)
		case kindDeepScout:
			in, script = g.scoutScript(spec.DBMS, r, rand.New(rand.NewSource(a.Seed^0x5c007)), true)
		case kindRDP:
			in = pickMed(spec.DBMS)
			if spec.DBMS == core.Postgres && a.Seed%3 == 0 {
				// A tooling variant wraps the cookie in a PostgreSQL-
				// shaped startup frame; the honeypot logs it as a
				// non-PostgreSQL handshake rather than raw junk.
				script = pgFramedRDPProbe()
			} else {
				script = rawProbe(rdpPayload())
			}
		case kindJDWP:
			in = pickMed(spec.DBMS)
			script = rawProbe(jdwpPayload())
		case kindP2PInfect:
			in = pickMed(core.Redis)
			script = redisCommands(p2pinfectCmds(c2, c2port, hash))
		case kindABCbot:
			in = pickMed(core.Redis)
			script = redisCommands(abcbotCmds(c2, c2port))
		case kindRedisCVE:
			in = pickMed(core.Redis)
			script = redisCommands(redisCVECmds())
		case kindVandal:
			in = pickMed(core.Redis)
			script = redisCommands([][]string{{"KEYS", "*"}, {"FLUSHALL"}})
		case kindKinsing:
			// Kinsing needs access: it works the open configuration. Four
			// script generations circulate (the paper clustered them into
			// four groups).
			in = pickMedConfig(core.Postgres, core.ConfigDefault)
			qs := kinsingQueries(c2, hash)
			switch variant := a.Seed % 4; variant {
			case 1:
				qs = append([]string{"SELECT version();"}, qs...)
			case 2:
				qs = append(qs, "SELECT pg_sleep(1);")
			case 3:
				qs = append([]string{"SET client_encoding TO 'UTF8';"}, qs...)
				qs = append(qs, "SELECT version();")
			}
			script = pgLogin("postgres", "postgres", qs)
		case kindPrivilege:
			in = pickMedConfig(core.Postgres, core.ConfigDefault)
			script = pgLogin("postgres", "postgres", privilegeQueries(hash[:12]))
		case kindLucifer:
			in = pickMed(core.Elastic)
			script = elasticRequests(luciferReqs(c2, c2port))
		case kindCraft:
			in = pickMed(core.Elastic)
			script = elasticRequests(craftReqs())
		case kindVMware:
			in = pickMed(core.Elastic)
			script = elasticRequests(vmwareReqs())
		case kindRedisBF:
			in = pickMed(core.Redis)
			cmds := make([][]string, 0, 20)
			for i := 0; i < 20; i++ {
				cmds = append(cmds, []string{"AUTH", g.corpus.passes[(r.Intn(len(g.corpus.passes)))]})
			}
			script = redisCommands(cmds)
		case kindPGBrute:
			// The restricted config attracts the aggressive credential
			// attacks (paper Section 6: 29,217 vs 14,084 logins). These
			// volumes are small in absolute terms, so they are never
			// scaled — scaling would invert the restricted/open ratio.
			nl := 40 + r.Intn(20)
			op := 8 + r.Intn(8)
			creds := g.corpus.stream(a.Seed+int64(day), topMSSQLCreds, "postgres")
			for i := 0; i < nl; i++ {
				u, p := creds.next()
				extra = append(extra, job{
					at: at(day, hour), src: nextSrc(),
					inst:   pickMedConfig(core.Postgres, core.ConfigNoLogin),
					script: pgLogin(u, p, nil),
				})
			}
			for i := 0; i < op; i++ {
				u, p := creds.next()
				extra = append(extra, job{
					at: at(day, hour), src: nextSrc(),
					inst:   pickMedConfig(core.Postgres, core.ConfigDefault),
					script: pgLogin(u, p, nil),
				})
			}
		case kindRansomA, kindRansomB:
			group := 0
			if spec.Kind == kindRansomB {
				group = 1
			}
			note := ransomNote(group,
				fmt.Sprintf("bc1q%08x", r.Uint32()),
				fmt.Sprintf("recover%d@onionmail.example", r.Intn(1000)),
				fmt.Sprintf("DB%06X", r.Intn(1<<24)))
			in = pickMed(core.MongoDB)
			script = mongoRansom(note)
		default:
			return fmt.Errorf("simnet: unknown behaviour kind %q", spec.Kind)
		}

		for _, j := range extra {
			if err := g.emit(j); err != nil {
				return err
			}
		}
		if script != nil {
			if err := g.emit(job{at: at(day, hour), src: nextSrc(), inst: in, script: script}); err != nil {
				return err
			}
		}
	}
	return nil
}

// scoutScript builds the information-gathering session for one DBMS.
// Deep scouting is the institutional-scanner behaviour the paper calls
// out: listing databases, collections and content. r picks the target
// instance (varies per session); vr composes the script and is seeded
// per actor, so one source runs the same tool every day — the property
// the TF clustering groups on.
func (g *jobGen) scoutScript(dbms string, r, vr *rand.Rand, deep bool) (*instance, Script) {
	switch dbms {
	case core.Elastic:
		in := g.insts.medAny(dbms)[r.Intn(len(g.insts.medAny(dbms)))]
		// Scouting tools differ in how much of the API they walk; the
		// behavioural variety is what the paper's clustering captures.
		pool := []httpReq{
			{method: "GET", target: "/_cat/indices"},
			{method: "GET", target: "/_cluster/health"},
			{method: "GET", target: "/_cat/nodes"},
			{method: "GET", target: "/_cluster/stats"},
			{method: "GET", target: "/_search?q=*"},
			{method: "GET", target: "/_all/_search"},
			{method: "GET", target: "/favicon.ico"},
		}
		reqs := []httpReq{{method: "GET", target: "/"}}
		k := 1 + vr.Intn(4)
		start := vr.Intn(len(pool))
		for i := 0; i < k; i++ {
			reqs = append(reqs, pool[(start+i*2)%len(pool)])
		}
		if deep {
			reqs = append(reqs,
				httpReq{method: "GET", target: "/_nodes"},
				httpReq{method: "GET", target: "/_cluster/stats"},
				httpReq{method: "GET", target: "/_search?q=*"},
			)
		}
		return in, elasticRequests(reqs)
	case core.MongoDB:
		in := g.insts.medAny(dbms)[r.Intn(len(g.insts.medAny(dbms)))]
		cmds := []bson.D{
			{{Key: "isMaster", Val: int32(1)}, {Key: "$db", Val: "admin"}},
		}
		if vr.Intn(2) == 0 {
			cmds = append(cmds, bson.D{{Key: "buildInfo", Val: int32(1)}, {Key: "$db", Val: "admin"}})
		}
		if vr.Intn(3) == 0 {
			cmds = append(cmds, bson.D{{Key: "serverStatus", Val: int32(1)}, {Key: "$db", Val: "admin"}})
		}
		if vr.Intn(3) == 0 {
			cmds = append(cmds, bson.D{{Key: "getLog", Val: "startupWarnings"}, {Key: "$db", Val: "admin"}})
		}
		if deep {
			cmds = append(cmds,
				bson.D{{Key: "listDatabases", Val: int32(1)}, {Key: "$db", Val: "admin"}},
				bson.D{{Key: "listCollections", Val: int32(1)}, {Key: "$db", Val: "customers"}},
			)
			if vr.Intn(2) == 0 {
				cmds = append(cmds, bson.D{{Key: "find", Val: "records"}, {Key: "limit", Val: int32(10)}, {Key: "$db", Val: "customers"}})
			}
			if vr.Intn(3) == 0 {
				cmds = append(cmds, bson.D{{Key: "count", Val: "records"}, {Key: "$db", Val: "customers"}})
			}
		} else {
			// A scout always issues at least one informational command
			// beyond the driver handshake.
			cmds = append(cmds, bson.D{{Key: "ping", Val: int32(1)}, {Key: "$db", Val: "admin"}})
		}
		return in, mongoCmds(cmds)
	case core.Postgres:
		// Scouts try one login; the open config lets them run probe
		// queries, the restricted one turns them away.
		var in *instance
		if r.Intn(2) == 0 {
			in = g.insts.med[core.Postgres][core.ConfigDefault][r.Intn(len(g.insts.med[core.Postgres][core.ConfigDefault]))]
		} else {
			in = g.insts.med[core.Postgres][core.ConfigNoLogin][r.Intn(len(g.insts.med[core.Postgres][core.ConfigNoLogin]))]
		}
		var queries []string
		switch vr.Intn(4) {
		case 0:
			queries = []string{"SELECT version();"}
		case 1:
			queries = []string{"SELECT version();", "SHOW server_version;"}
		case 2:
			queries = []string{"SELECT current_database();", "SELECT usename FROM pg_user;"}
		default:
			queries = nil // login probe only (the attempt itself is scouting)
		}
		return in, pgLogin("postgres", "postgres", queries)
	case core.Redis:
		// Fake-data instances trigger the TYPE-walking behaviour.
		pool := g.insts.med[core.Redis][core.ConfigFakeData]
		if deep || vr.Intn(2) == 0 {
			in := pool[r.Intn(len(pool))]
			return in, redisScoutFakeData()
		}
		in := g.insts.med[core.Redis][core.ConfigDefault][r.Intn(len(g.insts.med[core.Redis][core.ConfigDefault]))]
		variants := [][][]string{
			{{"INFO"}, {"CLIENT", "LIST"}, {"DBSIZE"}},
			{{"INFO"}, {"CONFIG", "GET", "dir"}},
			{{"PING"}, {"INFO", "server"}},
			{{"INFO"}, {"KEYS", "*"}, {"SCAN", "0"}},
		}
		return in, redisCommands(variants[vr.Intn(len(variants))])
	}
	panic("simnet: scout on unknown DBMS " + dbms)
}
