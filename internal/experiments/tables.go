package experiments

import (
	"fmt"
	"math/bits"
	"sort"

	"decoydb/internal/analysis"
	"decoydb/internal/asdb"
	"decoydb/internal/classify"
	"decoydb/internal/cluster"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/report"
)

// Table5 reproduces the top-10 countries by login attempts on the low
// tier. Measured counts are also rescaled by the run's scale factor for
// comparison against the paper's absolute volumes.
func Table5(ds *Dataset) report.Artifact {
	rows := analysis.CountryLoginTable(ds.Recs)
	t := &report.Table{
		Title:  fmt.Sprintf("Top-10 countries by login attempts (scale 1/%d)", ds.Scale),
		Header: []string{"country", "#logins", "~rescaled", "#IP/total", "mysql", "psql", "mssql"},
	}
	for i, r := range rows {
		if i >= 10 {
			break
		}
		t.AddRow(r.Country, r.Logins, r.Logins*int64(ds.Scale),
			fmt.Sprintf("%d/%d", r.LoginIPs, r.TotalIPs), r.MySQL, r.PSQL, r.MSSQL)
	}
	t.Note = "paper order: RU(16.6M) CN(884k) EE(161k) KR(98k) UA(97k) IR(75k) US(67k) GE(63k) GR(13k) IN(12k)"
	return report.Artifact{ID: "T5", Title: "Table 5: top-10 countries by login attempts", Body: t.String()}
}

// Table6 reproduces the top-10 ASes by IP count with their login split.
func Table6(ds *Dataset) report.Artifact {
	rows := analysis.TopASNs(ds.Recs)
	t := &report.Table{
		Title:  "Top-10 ASNs by IP count",
		Header: []string{"AS", "#IPs", "% of total", "#logins", "mysql", "mssql"},
	}
	for i, r := range rows {
		if i >= 10 {
			break
		}
		t.AddRow(fmt.Sprintf("%s (AS%d)", r.Name, r.ASN), r.IPs, r.Pct, r.Logins, r.MySQL, r.MSSQL)
	}
	t.Note = "paper order: HURRICANE 643, GOOGLE-CLOUD 560, DIGITALOCEAN 392, Constantine 252, AMAZON-AES 154, UCLOUD 142, Chinanet 112, China169 96, CENSYS 93, Akamai 91"
	return report.Artifact{ID: "T6", Title: "Table 6: top-10 ASNs by IP count and login distribution", Body: t.String()}
}

// Table7 reproduces the count of brute-forcing IPs per AS type.
func Table7(ds *Dataset) report.Artifact {
	counts := analysis.LoginIPsByASType(ds.Recs)
	t := &report.Table{
		Title:  "Brute-forcing IPs by AS type",
		Header: []string{"category", "#IPs"},
	}
	for _, ty := range asdb.Types() {
		if n := counts[ty]; n > 0 {
			t.AddRow(string(ty), n)
		}
	}
	t.Note = "paper: Hosting 286, Telecom 103, IP Service 35, ICT 25, Security 1, Unknown 148"
	return report.Artifact{ID: "T7", Title: "Table 7: login-attempting IPs by AS type", Body: t.String()}
}

// Table8 reproduces the per-honeypot classification and cluster counts.
func Table8(ds *Dataset) report.Artifact {
	t := &report.Table{
		Title:  "Medium/high honeypots: unique IPs, classification, clusters",
		Header: []string{"DBMS", "#IP", "scanning", "scouting", "exploiting", "#clusters"},
	}
	for _, dbms := range analysis.MHDBMSes {
		c := classify.Count(ds.Recs, classify.ForDBMS(dbms))
		res, _ := ds.ClusterFor(dbms)
		t.AddRow(dbms, c.IPs,
			fmt.Sprintf("%d (%.1f%%)", c.Scanning, pct(c.Scanning, c.IPs)),
			fmt.Sprintf("%d (%.1f%%)", c.Scouting, pct(c.Scouting, c.IPs)),
			fmt.Sprintf("%d (%.1f%%)", c.Exploiting, pct(c.Exploiting, c.IPs)),
			res.Clusters)
	}
	t.Note = "paper: elastic 1237 (608/627/2, 60 cls), mongodb 1233 (706/465/62, 30 cls), postgres 1955 (1140/593/222, 79 cls), redis 980 (676/266/38, 26 cls)"
	return report.Artifact{ID: "T8", Title: "Table 8: classification and clustering per medium/high honeypot", Body: t.String()}
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// table9Rows lists the campaign tags Table 9 reports, with the honeypot
// they target and the paper's IP counts.
var table9Rows = []struct {
	tag   string
	dbms  string
	paper string
}{
	{cluster.TagRDPScan, core.Redis, "14 IPs, 1 cl"},
	{cluster.TagJDWPScan, core.Redis, "2 IPs, 1 cl"},
	{cluster.TagRDPScan, core.Postgres, "164 IPs, 3 cl"},
	{cluster.TagCraftCMS, core.Elastic, "2 IPs, 1 cl"},
	{cluster.TagVMware, core.Elastic, "15 IPs, 2 cl"},
	{cluster.TagBruteForce, core.Redis, "5 IPs, 1 cl"},
	{cluster.TagBruteForce, core.Postgres, "84 IPs, 15 cl"},
	{cluster.TagPrivilege, core.Postgres, "25 IPs, 3 cl"},
	{cluster.TagRansom, core.MongoDB, "62 IPs, 2 cl"},
	{cluster.TagP2PInfect, core.Redis, "35 IPs, 1 cl"},
	{cluster.TagABCbot, core.Redis, "1 IP, 1 cl"},
	{cluster.TagKinsing, core.Postgres, "196 IPs, 4 cl"},
	{cluster.TagLucifer, core.Elastic, "2 IPs, 1 cl"},
	{cluster.TagRedisCVE, core.Redis, "1 IP, 1 cl"},
}

// Table9 reproduces the campaign summary: per attack, the number of IPs
// and behaviour clusters observed.
func Table9(ds *Dataset) report.Artifact {
	t := &report.Table{
		Title:  "Attack campaigns by type",
		Header: []string{"honeypot", "campaign", "#IPs", "#clusters", "paper"},
	}
	byAddr := map[string]*evstore.IPRecord{}
	for _, r := range ds.Recs {
		byAddr[r.Addr.String()] = r
	}
	for _, row := range table9Rows {
		res, raws := ds.ClusterFor(row.dbms)
		ips := 0
		clusters := map[int]bool{}
		for i, seq := range res.Sequences {
			tag := cluster.TagSequence(seq.Actions, raws[seq.ID])
			if tag == "" && row.tag == cluster.TagBruteForce {
				// Brute-force has no payload signature; detect via login
				// pressure (multiple attempts per active day) on the
				// matching DBMS, or repeated AUTH on Redis.
				if rec := byAddr[seq.ID]; rec != nil {
					days := int64(bits.OnesCount64(rec.ActiveDaysMask(classify.ForDBMS(row.dbms))))
					if n := mhLogins(rec, row.dbms); days > 0 && n >= 2*days {
						tag = cluster.TagBruteForce
					}
				}
				if row.dbms == core.Redis && countAction(seq.Actions, "AUTH") >= 3 {
					tag = cluster.TagBruteForce
				}
			}
			if tag != row.tag {
				continue
			}
			ips++
			clusters[res.Labels[i]] = true
		}
		t.AddRow(row.dbms, row.tag, ips, len(clusters), row.paper)
	}
	return report.Artifact{ID: "T9", Title: "Table 9: summary of honeypot attacks by type", Body: t.String()}
}

func mhLogins(rec *evstore.IPRecord, dbms string) int64 {
	var n int64
	for k, a := range rec.Per {
		if k.Level >= core.Medium && k.DBMS == dbms {
			n += a.Logins
		}
	}
	return n
}

func countAction(actions []string, name string) int {
	n := 0
	for _, a := range actions {
		if a == name {
			n++
		}
	}
	return n
}

// Table10 reproduces the exploiting-IP country matrix.
func Table10(ds *Dataset) report.Artifact {
	rows := analysis.ExploiterCountries(ds.Recs)
	t := &report.Table{
		Title:  "Top-10 countries by exploiting IPs",
		Header: []string{"country", "#IP", "elastic", "mongodb", "psql", "redis"},
	}
	for i, r := range rows {
		if i >= 10 {
			break
		}
		t.AddRow(r.Country, r.Total,
			r.PerDBMS[core.Elastic], r.PerDBMS[core.MongoDB],
			r.PerDBMS[core.Postgres], r.PerDBMS[core.Redis])
	}
	t.Note = "paper top rows: US 52, China 45, Bulgaria 32, Germany 31, France 30, UK 18, NL 13, Russia 12, Singapore 11, Indonesia 7"
	return report.Artifact{ID: "T10", Title: "Table 10: exploiting IPs by country and honeypot", Body: t.String()}
}

// Table11 reproduces the AS-type x behaviour membership matrix.
func Table11(ds *Dataset) report.Artifact {
	counts := analysis.BehaviorByASType(ds.Recs)
	t := &report.Table{
		Title:  "Behaviour memberships by AS type (medium/high tier)",
		Header: []string{"AS type", "scanning", "scouting", "exploiting"},
	}
	for _, ty := range asdb.Types() {
		c := counts[ty]
		if c == nil {
			continue
		}
		t.AddRow(string(ty), c.Scanning, c.Scouting, c.Exploiting)
	}
	t.Note = "paper: Telecom 1070/138/34, Hosting 1777/1020/264, Security 122/334/0, ICT 2/61/19, IP Service 3/70/0, Unknown 155/325/5"
	return report.Artifact{ID: "T11", Title: "Table 11: AS types vs behaviour", Body: t.String()}
}

// Table12 reproduces the top MSSQL credentials.
func Table12(ds *Dataset) report.Artifact {
	creds := ds.Snap.Creds(evstore.Query{DBMS: core.MSSQL, Tier: evstore.LowTier}, 10)
	t := &report.Table{
		Title:  "Top-10 MSSQL credentials",
		Header: []string{"username", "password", "count"},
	}
	for _, c := range creds {
		pass := c.Pass
		if pass == "" {
			pass = `""`
		}
		t.AddRow(c.User, pass, c.Count)
	}
	t.Note = `paper order: sa/123, admin/123456, hbv7/"", test/1, root/aaaaaa, user/0, administrator/1234, sa1/P@ssw0rd, petroleum/12345, sa2/password`
	return report.Artifact{ID: "T12", Title: "Table 12: top-10 MSSQL usernames and passwords", Body: t.String()}
}

// Table4 renders the deployment itself — a configuration table, but
// reproducing it verifies the deployment builder.
func Table4(ds *Dataset) report.Artifact {
	d := core.DefaultDeployment()
	type key struct {
		level  core.Level
		dbms   string
		config string
		group  string
	}
	counts := map[key]int{}
	for _, in := range d.Instances {
		counts[key{in.Level, in.DBMS, in.Config, in.Group}]++
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.level != b.level {
			return a.level < b.level
		}
		if a.dbms != b.dbms {
			return a.dbms < b.dbms
		}
		if a.group != b.group {
			return a.group < b.group
		}
		return a.config < b.config
	})
	t := &report.Table{
		Title:  "Deployment (278 honeypots)",
		Header: []string{"interaction", "DBMS", "group", "config", "instances"},
	}
	for _, k := range keys {
		t.AddRow(k.level.String(), k.dbms, k.group, k.config, counts[k])
	}
	return report.Artifact{ID: "T4", Title: "Table 4: honeypot deployment", Body: t.String()}
}
