package main

import (
	"context"
	"errors"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"decoydb/internal/core"
	"decoydb/internal/simnet"
)

// sessionKind is one kind of session the brute workloads send.
type sessionKind struct {
	dbms string
	scan bool
}

// said is what one event records of the client's side of a session.
type said struct {
	Kind                     core.EventKind
	User, Pass, Command, Raw string
	OK                       bool
}

func saidBy(evs []core.Event) []said {
	out := make([]said, len(evs))
	for i, e := range evs {
		out[i] = said{Kind: e.Kind, User: e.User, Pass: e.Pass, Command: e.Command, Raw: e.Raw, OK: e.OK}
	}
	return out
}

// TestClientMatchesSimnet guards client.go, which restates simnet's
// unexported scan and login scripts: for every kind of session the brute
// workloads send, the events the benchmark's farm records for the
// benchmark's client must be the events the simulator records for its own
// script, with the same credential.
func TestClientMatchesSimnet(t *testing.T) {
	want := simnetSessions(t)

	deploy := farmDeployment()
	handlers := simnet.BuildHoneypots(deploy, fakeDataSeed)
	var mu sync.Mutex
	got := map[netip.AddrPort][]core.Event{}
	farm := core.NewFarm(core.RealClock{}, core.SinkFunc(func(e core.Event) {
		mu.Lock()
		got[e.Src] = append(got[e.Src], e)
		mu.Unlock()
	}), core.FarmOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := &generator{p: newProbe(false), addrs: map[string]string{}}
	for _, info := range deploy.Instances {
		addr, err := farm.Listen(ctx, "127.0.0.1:0", &core.Honeypot{Info: info, Handler: handlers[info.ID()]})
		if err != nil {
			t.Fatal(err)
		}
		g.addrs[info.DBMS] = addr.String()
	}
	srcs := map[sessionKind]netip.AddrPort{}
	for k, evs := range want {
		s := session{dbms: k.dbms, scan: k.scan}
		for _, e := range evs {
			if e.Kind == core.EventLogin {
				s.user, s.pass = e.User, e.Pass
			}
		}
		if o := g.run(s, phaseOpen, 0); o.failed || !o.src.IsValid() {
			t.Errorf("%+v: the benchmark's session failed", k)
		} else {
			srcs[k] = o.src
		}
	}
	farm.Shutdown()

	for k, evs := range want {
		if sim, bench := saidBy(evs), saidBy(got[srcs[k]]); !slices.Equal(sim, bench) {
			t.Errorf("%+v:\n simnet:    %+v\n benchmark: %+v", k, sim, bench)
		}
	}
}

// simnetSessions runs the simulator until it has recorded a whole low-tier
// session of every kind the brute workloads send, and returns the first of
// each. A large scale keeps each brute-forcer's run of logins short, so
// every kind turns up within a few seconds.
func simnetSessions(t *testing.T) map[sessionKind][]core.Event {
	kinds := map[sessionKind]bool{}
	for _, dbms := range scanDBMS {
		kinds[sessionKind{dbms: dbms, scan: true}] = true
	}
	for _, dbms := range []string{core.MSSQL, core.MySQL, core.Postgres} {
		kinds[sessionKind{dbms: dbms}] = true
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	open := map[netip.AddrPort][]core.Event{}
	found := map[sessionKind][]core.Event{}
	sink := core.SinkFunc(func(e core.Event) {
		mu.Lock()
		defer mu.Unlock()
		open[e.Src] = append(open[e.Src], e)
		if e.Kind != core.EventClose {
			return
		}
		evs := open[e.Src]
		delete(open, e.Src)
		if k, ok := kindOf(evs); ok && kinds[k] && found[k] == nil {
			found[k] = evs
			if len(found) == len(kinds) {
				cancel()
			}
		}
	})
	if _, err := simnet.Run(ctx, simnet.Config{Seed: 1, Scale: 4096}, sink); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for k := range kinds {
		if found[k] == nil {
			t.Fatalf("the simulator recorded no %+v session", k)
		}
	}
	return found
}

// kindOf tells a low-tier scan (connect, close) from a single login
// (connect, login, close).
func kindOf(evs []core.Event) (sessionKind, bool) {
	k := sessionKind{dbms: evs[0].Honeypot.DBMS}
	if evs[0].Honeypot.Level != core.Low {
		return k, false
	}
	shape := make([]core.EventKind, len(evs))
	for i, e := range evs {
		shape[i] = e.Kind
	}
	switch {
	case slices.Equal(shape, []core.EventKind{core.EventConnect, core.EventClose}):
		k.scan = true
		return k, true
	case slices.Equal(shape, []core.EventKind{core.EventConnect, core.EventLogin, core.EventClose}):
		return k, true
	}
	return k, false
}
