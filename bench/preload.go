package main

import (
	"math/rand"
	"net/netip"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/simnet"
)

// windowStart is the start of a 20-day store window that ends on the day
// of end, the latest a run can end, so events stamped by core.RealClock
// during the run land on the window's last days, even in a run that
// crosses midnight, and the store's day and hour indexes do their work.
func windowStart(end time.Time) time.Time {
	day := end.UTC().Truncate(24 * time.Hour)
	return day.AddDate(0, 0, -(core.ExperimentDays - 1))
}

// preload fills the collector store with a paper-sized capture before the
// first session, as if the collector had been running for the whole
// window: every population source's hourly activity on its active days,
// and each of the capture's captureCreds distinct brute-force credentials
// once, spread over the MSSQL and MySQL brute-forcers by volume. The brute
// workload's logins then mostly repeat credentials the store holds, as
// they would at a collector late in its window. It returns the number of
// events ingested.
func preload(store *evstore.Store, pop *simnet.Population, seed int64) (int64, error) {
	r := rand.New(rand.NewSource(seed ^ 0x7072656c6f6164))
	start := store.Start()
	var n int64
	batch := make([]core.Event, 0, 512)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := store.RecordBatch(batch); err != nil {
			return err
		}
		n += int64(len(batch))
		batch = batch[:0]
		return nil
	}
	emit := func(e core.Event) error {
		batch = append(batch, e)
		if len(batch) == cap(batch) {
			return flush()
		}
		return nil
	}
	at := func(day, hour int) time.Time {
		return start.Add(time.Duration(day)*24*time.Hour + time.Duration(hour)*time.Hour + time.Duration(r.Intn(3600))*time.Second)
	}
	port := uint16(1024)
	emitSession := func(src netip.Addr, info core.Info, t time.Time, mid ...core.Event) error {
		port++
		ap := netip.AddrPortFrom(src, port)
		if err := emit(core.Event{Time: t, Src: ap, Honeypot: info, Kind: core.EventConnect}); err != nil {
			return err
		}
		for _, e := range mid {
			e.Time, e.Src, e.Honeypot = t, ap, info
			if err := emit(e); err != nil {
				return err
			}
		}
		return emit(core.Event{Time: t, Src: ap, Honeypot: info, Kind: core.EventClose})
	}
	lowTier := []string{core.MySQL, core.Postgres, core.Redis, core.MSSQL}
	low := func(dbms string) core.Info {
		return core.Info{DBMS: dbms, Level: core.Low, Port: core.DefaultPort(dbms), Config: core.ConfigDefault, Group: core.GroupMulti, VM: "preload"}
	}

	brute := &picker{}
	for i, a := range pop.Actors {
		if a.Brute != nil {
			brute.add(i, float64(a.Brute.MSSQL+a.Brute.MySQL))
		}
		if a.LowGroups != 0 {
			for _, day := range a.Days {
				for h := 0; h < a.HoursPerDay; h++ {
					hour := h
					if a.HoursPerDay < 24 {
						hour = r.Intn(24)
					}
					if err := emitSession(a.Addr, low(lowTier[r.Intn(len(lowTier))]), at(day, hour)); err != nil {
						return n, err
					}
				}
			}
		}
		for _, m := range a.MH {
			info := core.Info{DBMS: m.DBMS, Level: core.Medium, Port: core.DefaultPort(m.DBMS), Config: core.ConfigDefault, Group: core.GroupMedium, VM: "preload"}
			for _, day := range a.Days {
				cmd := core.Event{Kind: core.EventCommand, Command: m.Kind, Raw: m.Kind}
				if err := emitSession(a.Addr, info, at(day, r.Intn(24)), cmd); err != nil {
					return n, err
				}
			}
		}
	}
	// The logins alone: their sessions' hourly presence is already above.
	for c := 0; c < captureCreds; c++ {
		a := pop.Actors[brute.pick(r)]
		port++
		login := core.Event{Src: netip.AddrPortFrom(a.Addr, port), Kind: core.EventLogin,
			Time: at(a.Days[r.Intn(len(a.Days))], r.Intn(24))}
		login.User, login.Pass = credential(c)
		login.Honeypot = low(core.MSSQL)
		if r.Int63n(a.Brute.MSSQL+a.Brute.MySQL) >= a.Brute.MSSQL {
			login.Honeypot = low(core.MySQL)
		}
		if err := emit(login); err != nil {
			return n, err
		}
	}
	return n, flush()
}
