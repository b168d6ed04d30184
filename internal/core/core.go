// Package core defines the honeypot framework: the interaction-level and
// deployment model from the paper's Table 4, the event schema shared by all
// protocol honeypots, sessions, clocks, and the Farm that serves honeypots
// on real listeners.
//
// Protocol packages (internal/mysql, internal/redis, ...) implement the
// Handler interface; everything downstream (the pipeline, classifier,
// clustering and experiments) consumes the Event stream produced here.
package core

import "fmt"

// Level is the honeypot interaction level.
type Level int

// Interaction levels, following the taxonomy in the paper's Section 2.
const (
	Low Level = iota
	Medium
	High
)

// String returns the canonical lower-case level name.
func (l Level) String() string {
	switch l {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// DBMS identifiers. These double as log-file prefixes and analysis keys.
// MariaDB and CouchDB are the extension honeypots the paper's limitations
// section names as future coverage.
const (
	MySQL    = "mysql"
	MSSQL    = "mssql"
	Postgres = "postgres"
	Redis    = "redis"
	Elastic  = "elastic"
	MongoDB  = "mongodb"
	MariaDB  = "mariadb"
	CouchDB  = "couchdb"
)

// DefaultPort returns the IANA/default port for a DBMS name, or 0 if
// unknown.
func DefaultPort(dbms string) int {
	switch dbms {
	case MySQL:
		return 3306
	case MSSQL:
		return 1433
	case Postgres:
		return 5432
	case Redis:
		return 6379
	case Elastic:
		return 9200
	case MongoDB:
		return 27017
	case MariaDB:
		return 3306
	case CouchDB:
		return 5984
	}
	return 0
}

// Deployment groups. Low-interaction honeypots come in two flavours: VMs
// exposing all four services behind one IP ("multi") and a control set
// exposing one service per IP ("single"), mirroring the paper's Section 4.2.
const (
	GroupMulti  = "multi"
	GroupSingle = "single"
	GroupMedium = "medium"
	GroupHigh   = "high"
)

// Config labels for medium/high-interaction variants.
const (
	ConfigDefault  = "default"
	ConfigFakeData = "fakedata"
	ConfigNoLogin  = "nologin"
)

// Info identifies a single honeypot instance within a deployment. It is
// embedded in every event so analyses can slice by DBMS, level, config,
// deployment group, VM and region.
type Info struct {
	DBMS     string // one of the DBMS constants
	Level    Level
	Port     int
	Instance int    // index within (DBMS, Config)
	Config   string // ConfigDefault, ConfigFakeData, ConfigNoLogin
	Group    string // GroupMulti, GroupSingle, GroupMedium, GroupHigh
	VM       string // identifier of the hosting VM / IP
	Region   string // geographic region label (high-interaction tier)
}

// ID returns a stable unique identifier for the instance.
func (i Info) ID() string {
	return fmt.Sprintf("%s/%s/%s-%02d", i.DBMS, i.Group, i.Config, i.Instance)
}

// Deployment is a concrete set of honeypot instances.
type Deployment struct {
	Instances []Info
}

// ByDBMS returns the instances for one DBMS.
func (d *Deployment) ByDBMS(dbms string) []Info {
	var out []Info
	for _, in := range d.Instances {
		if in.DBMS == dbms {
			out = append(out, in)
		}
	}
	return out
}

// ByGroup returns the instances in one deployment group.
func (d *Deployment) ByGroup(group string) []Info {
	var out []Info
	for _, in := range d.Instances {
		if in.Group == group {
			out = append(out, in)
		}
	}
	return out
}

// LowCount reports the number of low-interaction instances.
func (d *Deployment) LowCount() int {
	n := 0
	for _, in := range d.Instances {
		if in.Level == Low {
			n++
		}
	}
	return n
}

// MongoRegions lists the eight cloud regions hosting the high-interaction
// MongoDB honeypots (paper Section 4.2).
var MongoRegions = []string{
	"AU", "CA", "DE", "IN", "NL", "SG", "UK", "US",
}

// DefaultDeployment reproduces the paper's Table 4 exactly: 278 honeypots,
// 220 low-interaction (50 multi-service VMs x 4 DBMS + 5 single-service VMs
// per DBMS), 20 medium Redis (half with fake data), 20 medium PostgreSQL
// (half with login disabled), 10 medium Elasticsearch, and 8 high
// MongoDB instances spread over eight regions.
func DefaultDeployment() *Deployment {
	d := &Deployment{}
	add := func(in Info) { d.Instances = append(d.Instances, in) }

	lowDBMS := []string{MySQL, Postgres, Redis, MSSQL}
	for vm := 0; vm < 50; vm++ {
		for _, dbms := range lowDBMS {
			add(Info{
				DBMS: dbms, Level: Low, Port: DefaultPort(dbms),
				Instance: vm, Config: ConfigDefault, Group: GroupMulti,
				VM: fmt.Sprintf("lo-multi-%02d", vm),
			})
		}
	}
	for _, dbms := range lowDBMS {
		for i := 0; i < 5; i++ {
			add(Info{
				DBMS: dbms, Level: Low, Port: DefaultPort(dbms),
				Instance: i, Config: ConfigDefault, Group: GroupSingle,
				VM: fmt.Sprintf("lo-single-%s-%d", dbms, i),
			})
		}
	}
	for i := 0; i < 10; i++ {
		add(Info{
			DBMS: Redis, Level: Medium, Port: DefaultPort(Redis),
			Instance: i, Config: ConfigDefault, Group: GroupMedium,
			VM: fmt.Sprintf("med-redis-%02d", i),
		})
	}
	for i := 0; i < 10; i++ {
		add(Info{
			DBMS: Redis, Level: Medium, Port: DefaultPort(Redis),
			Instance: i, Config: ConfigFakeData, Group: GroupMedium,
			VM: fmt.Sprintf("med-redis-fd-%02d", i),
		})
	}
	for i := 0; i < 10; i++ {
		add(Info{
			DBMS: Postgres, Level: Medium, Port: DefaultPort(Postgres),
			Instance: i, Config: ConfigDefault, Group: GroupMedium,
			VM: fmt.Sprintf("med-psql-%02d", i),
		})
	}
	for i := 0; i < 10; i++ {
		add(Info{
			DBMS: Postgres, Level: Medium, Port: DefaultPort(Postgres),
			Instance: i, Config: ConfigNoLogin, Group: GroupMedium,
			VM: fmt.Sprintf("med-psql-nl-%02d", i),
		})
	}
	for i := 0; i < 10; i++ {
		add(Info{
			DBMS: Elastic, Level: Medium, Port: DefaultPort(Elastic),
			Instance: i, Config: ConfigDefault, Group: GroupMedium,
			VM: fmt.Sprintf("med-elastic-%02d", i),
		})
	}
	for i, region := range MongoRegions {
		add(Info{
			DBMS: MongoDB, Level: High, Port: DefaultPort(MongoDB),
			Instance: i, Config: ConfigFakeData, Group: GroupHigh,
			VM: fmt.Sprintf("hi-mongo-%s", region), Region: region,
		})
	}
	return d
}

// ExtendedDeployment is DefaultDeployment plus the coverage the paper's
// limitations section proposes: low-interaction MariaDB and
// medium-interaction CouchDB honeypots for the lesser-studied platforms.
func ExtendedDeployment() *Deployment {
	d := DefaultDeployment()
	for i := 0; i < 5; i++ {
		d.Instances = append(d.Instances, Info{
			DBMS: MariaDB, Level: Low, Port: DefaultPort(MariaDB),
			Instance: i, Config: ConfigDefault, Group: GroupSingle,
			VM: fmt.Sprintf("lo-single-mariadb-%d", i),
		})
	}
	for i := 0; i < 5; i++ {
		d.Instances = append(d.Instances, Info{
			DBMS: CouchDB, Level: Medium, Port: DefaultPort(CouchDB),
			Instance: i, Config: ConfigFakeData, Group: GroupMedium,
			VM: fmt.Sprintf("med-couchdb-%02d", i),
		})
	}
	return d
}
