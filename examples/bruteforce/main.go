// Bruteforce: serve a low-interaction MSSQL honeypot on TCP, run a
// credential brute-force against it over the real TDS protocol, then
// report the harvested credentials and cross-reference the source against
// threat-intelligence feeds — the paper's Section 5 workflow in miniature.
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net"
	"net/netip"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/geoip"
	"decoydb/internal/intel"
	"decoydb/internal/mssql"
)

// creds is a small default-credential list in the style brute tools walk
// first (paper Table 12).
var creds = [][2]string{
	{"sa", "123"}, {"sa", "123"}, {"sa", "123"}, // defaults get retried
	{"admin", "123456"}, {"sa", "password"}, {"test", "1"},
	{"root", "aaaaaa"}, {"sa", "P@ssw0rd"}, {"sa", "sa2024!"}, {"user", "0"},
}

func main() {
	log.SetFlags(0)
	store := evstore.New(time.Now().UTC().Truncate(24*time.Hour), 20, geoip.Default())
	farm := core.NewFarm(core.RealClock{}, store, core.FarmOptions{})
	defer farm.Shutdown()

	info := core.Info{DBMS: core.MSSQL, Level: core.Low, Config: core.ConfigDefault, Group: core.GroupSingle}
	addr, err := farm.Listen(context.Background(), "127.0.0.1:0", &core.Honeypot{Info: info, Handler: mssql.New().Handler()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mssql honeypot on %s\n", addr)

	// Brute-force over real TDS: one connection per attempt, like actual
	// tooling (MSSQL drops the connection after a failed login).
	for _, c := range creds {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			log.Fatal(err)
		}
		br := bufio.NewReader(conn)
		pre := mssql.Packet{Type: mssql.PktPrelogin, Payload: mssql.StandardPrelogin(11, 0, 0, 0)}
		if err := mssql.WritePacket(conn, pre); err != nil {
			log.Fatal(err)
		}
		if _, err := mssql.ReadPacket(br); err != nil {
			log.Fatal(err)
		}
		l7 := mssql.EncodeLogin7(mssql.Login7{HostName: "ATTACKER", UserName: c[0], Password: c[1], AppName: "sqlbrute"})
		if err := mssql.WritePacket(conn, mssql.Packet{Type: mssql.PktLogin7, Payload: l7}); err != nil {
			log.Fatal(err)
		}
		resp, err := mssql.ReadPacket(br)
		if err != nil {
			log.Fatal(err)
		}
		code, msg, _ := mssql.ParseError(resp.Payload)
		fmt.Printf("  attempt %s/%s -> %d %s\n", c[0], c[1], code, msg)
		conn.Close()
	}

	// Wait for the async farm sessions to drain into the store.
	deadline := time.Now().Add(2 * time.Second)
	snap := store.Snapshot()
	for snap.Logins(evstore.Query{}) < int64(len(creds)) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		snap = store.Snapshot()
	}

	fmt.Println("\nharvested credentials (by frequency):")
	for _, cc := range snap.Creds(evstore.Query{DBMS: core.MSSQL}, 0) {
		fmt.Printf("  %-8s %-10s x%d\n", cc.User, cc.Pass, cc.Count)
	}

	// Cross-reference the attacking source against intel feeds, as the
	// paper did with GreyNoise/AbuseIPDB/Team Cymru.
	var sources []netip.Addr
	for _, r := range snap.Recs() {
		sources = append(sources, r.Addr)
	}
	feed := intel.BuildFeed(intel.GreyNoise, sources, intel.Coverage{
		ListedFrac: 1, MaliciousFrac: 1, Tags: []string{"MSSQL bruteforcer"},
	}, 1)
	for _, s := range intel.CrossReference([]*intel.Feed{feed}, sources) {
		fmt.Printf("\n%s: %d/%d sources listed, %d flagged malicious\n",
			s.Feed, s.Listed, s.Total, s.Malicious)
	}
	fmt.Println("bruteforce OK")
}
