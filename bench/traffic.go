package main

import (
	"math/rand"
	"net/netip"
	"sort"
	"strconv"
	"sync"

	"decoydb/internal/core"
	"decoydb/internal/simnet"
)

// session is one scripted client connection: which actor makes it, which
// listener it dials, and, unless it only scans, the credential it tries.
type session struct {
	actor      int    // population index; the generator binds its loopback alias
	dbms       string // listener to dial
	scan       bool   // connect, read the banner if the server sends one, close
	user, pass string // login sessions
}

// plan hands out the sessions of one workload in a fixed order drawn from
// the seed: the same seed gives the same sequence, however the generator's
// workers interleave.
type plan struct {
	mu   sync.Mutex
	r    *rand.Rand
	n    int64
	draw func(r *rand.Rand) session
}

func newPlan(seed int64, draw func(r *rand.Rand) session) *plan {
	return &plan{r: rand.New(rand.NewSource(seed)), draw: draw}
}

// take returns the next session and its position in the sequence.
func (p *plan) take() (int64, session) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := p.n
	p.n++
	return k, p.draw(p.r)
}

func (p *plan) taken() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// aliasFor is the loopback address actor i dials from. core.Farm takes a
// session's source from the connection's remote address, so without a
// distinct address per actor every session would arrive as 127.0.0.1 and
// the bus shards, the adaptive per-source budget and the stream analyzer
// would all see a single attacker.
func aliasFor(i int) netip.Addr {
	v := uint32(127)<<24 | uint32(100)<<16 + uint32(i) + 1
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// picker draws indices with probability proportional to their weights.
type picker struct {
	idx []int
	cum []float64
}

func (p *picker) add(i int, w float64) {
	if w <= 0 {
		return
	}
	total := w
	if n := len(p.cum); n > 0 {
		total += p.cum[n-1]
	}
	p.idx = append(p.idx, i)
	p.cum = append(p.cum, total)
}

func (p *picker) pick(r *rand.Rand) int {
	x := r.Float64() * p.cum[len(p.cum)-1]
	return p.idx[sort.SearchFloat64s(p.cum, x)]
}

// scanDBMS are the low-tier listeners simnet's scanners choose from, each
// as likely as the others (simnet.go, pickLowTargets).
var scanDBMS = []string{core.MySQL, core.Postgres, core.Redis, core.MSSQL}

// scansPerHour is how many listeners a low-tier actor scans, on average, in
// each of its active hours: simnet draws two to six (simnet.go, emitActor).
const scansPerHour = 4

// bruteTraffic is the brute workload's session mix: the low tier of the
// population the simulator builds for the seed, each actor's scans and
// logins drawn in proportion to the sessions simnet runs for it. Every
// low-tier actor scans scansPerHour listeners in each of its active hours;
// brute-forcers add their Actor.Brute logins, split over MSSQL, MySQL and
// PostgreSQL as the spec says. At the default scale about one session in
// eight is a scan.
func bruteTraffic(pop *simnet.Population) func(*rand.Rand) session {
	type slot struct {
		actor int
		login bool
	}
	var slots []slot
	p := &picker{}
	for i, a := range pop.Actors {
		if a.LowGroups != 0 {
			p.add(len(slots), float64(len(a.Days)*a.HoursPerDay*scansPerHour))
			slots = append(slots, slot{actor: i})
		}
		if a.Brute != nil {
			p.add(len(slots), float64(a.Brute.Total()))
			slots = append(slots, slot{actor: i, login: true})
		}
	}
	return func(r *rand.Rand) session {
		sl := slots[p.pick(r)]
		s := session{actor: sl.actor}
		if !sl.login {
			s.dbms, s.scan = scanDBMS[r.Intn(len(scanDBMS))], true
			return s
		}
		b := pop.Actors[sl.actor].Brute
		switch x := r.Int63n(b.Total()); {
		case x < b.MSSQL:
			s.dbms = core.MSSQL
			s.user, s.pass = drawCredential(r)
		case x < b.MSSQL+b.MySQL:
			s.dbms = core.MySQL
			s.user, s.pass = drawCredential(r)
		default:
			// The single combination the paper saw on 5432 (simnet.go,
			// emitBrute).
			s.dbms, s.user, s.pass = core.Postgres, "postgres", "postgres"
		}
		return s
	}
}

// The brute-force credentials of the capture the simulator builds at its
// default scale, as the committed report_scale32.txt measures them
// (sections T12 and X1): 566,416 logins over 107,917 distinct
// combinations of 462 usernames and 6,291 passwords.
const (
	captureLogins    = 566_416
	captureCreds     = 107_917
	captureUsers     = 462
	capturePasswords = 6_291
)

// topCreds are the capture's ten most tried credentials and how often each
// was tried (report_scale32.txt, T12: the paper's Table 12, in its order).
// Together they make up 10.1% of the logins.
var topCreds = []struct {
	user, pass string
	count      int
}{
	{"sa", "123", 6149}, {"admin", "123456", 5784}, {"hbv7", "", 5705}, {"test", "1", 5705},
	{"root", "aaaaaa", 5698}, {"user", "0", 5688}, {"administrator", "1234", 5683},
	{"sa1", "P@ssw0rd", 5680}, {"petroleum", "12345", 5679}, {"sa2", "password", 5675},
}

// credential returns the capture's i-th distinct credential, for
// 0 <= i < captureCreds: the top ten, then pairs of synthetic usernames and
// passwords, of which there are as many as the capture's count less the
// top ten's. Their counts, 452 and 6,281, are coprime, so the first
// 2,839,012 pairs, and with them all of the capture's, are distinct.
func credential(i int) (user, pass string) {
	if i < len(topCreds) {
		return topCreds[i].user, topCreds[i].pass
	}
	n := len(topCreds)
	return "user" + strconv.Itoa(i%(captureUsers-n)), "pass" + strconv.Itoa(i%(capturePasswords-n))
}

// drawCredential draws one login's credential from the capture's
// distribution: a top-ten credential as often as the capture tried it,
// otherwise any of the others with equal chance, as the report gives no
// frequencies below the top ten.
func drawCredential(r *rand.Rand) (string, string) {
	x := r.Intn(captureLogins)
	for i, c := range topCreds {
		if x < c.count {
			return credential(i)
		}
		x -= c.count
	}
	return credential(len(topCreds) + r.Intn(captureCreds-len(topCreds)))
}
