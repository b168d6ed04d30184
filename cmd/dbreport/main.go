// Command dbreport regenerates every table and figure from the paper's
// evaluation: it runs the simulated 20-day deployment, feeds the captured
// traffic through the enrichment/classification/clustering pipeline, and
// prints each artefact alongside the paper's reported values.
//
// With -store DIR it skips the simulation entirely and reports on a real
// capture instead: the write-ahead log a decoydb farm (DIR/journal) or a
// dbcollect collector (DIR/collector) left behind is replayed into an
// event store, and the capture summary — including how much of a torn
// tail recovery had to discard — is printed. This closes the durability
// loop: run decoydb -store, kill it however rudely, and dbreport shows
// exactly what survived.
//
// With -live ADDR it reports on a *running* collector instead: the
// admin plane dbcollect serves with -admin (see internal/obs) exposes
// /statusz and /query over HTTP, and dbreport renders the live capture
// in the same artefact format — no restart, no WAL replay, just a
// point-in-time view of a collection session still in flight.
//
// Usage:
//
//	dbreport [-seed N] [-scale N] [-only T5,T8] [-o report.txt]
//	dbreport -store DIR [-o report.txt]
//	dbreport -live 127.0.0.1:9200 [-o report.txt]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"decoydb/internal/cliflags"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/experiments"
	"decoydb/internal/geoip"
	"decoydb/internal/obs"
	"decoydb/internal/relay"
	"decoydb/internal/report"
	"decoydb/internal/simnet"
	"decoydb/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dbreport: ")
	var (
		seed  = flag.Int64("seed", 1, "simulation seed")
		scale = flag.Int("scale", simnet.DefaultScale, "brute-force volume divisor (1 = paper volume)")
		only  = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		out   = flag.String("o", "", "write the report to a file as well as stdout")
		live  = flag.String("live", "", "report on a running collector's admin plane at this host:port (dbcollect -admin)")
	)
	storeFlag := cliflags.RegisterStore(flag.CommandLine)
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	if *live != "" {
		if err := reportLive(w, *live); err != nil {
			log.Fatal(err)
		}
		return
	}
	if storeFlag.Enabled() {
		if err := reportStore(w, storeFlag); err != nil {
			log.Fatal(err)
		}
		return
	}

	began := time.Now()
	fmt.Fprintf(w, "decoydb experiment report (seed=%d scale=1/%d)\n", *seed, *scale)
	fmt.Fprintf(w, "reproducing: Decoy Databases — Analyzing Attacks on Public Facing Databases (IMC '25)\n\n")

	ds, err := experiments.Build(context.Background(), *seed, *scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "dataset built in %v: %d events from %d sources\n",
		time.Since(began).Round(time.Millisecond), ds.Snap.Events(), len(ds.Recs))
	if ds.InstApplied == 0 && len(ds.Pop.Institutional) > 0 {
		fmt.Fprintf(w, "warning: institutional scanner list (%d addresses) does not overlap the capture — Section 6.1 shares will be zero\n",
			len(ds.Pop.Institutional))
	}
	fmt.Fprintf(w, "transport: %s\n\n", ds.Bus)

	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			selected[id] = true
		}
	}
	for _, e := range experiments.All {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		art := e.Run(ds)
		fmt.Fprintf(w, "=== %s — %s ===\n%s\n", art.ID, art.Title, art.Body)
	}
	fmt.Fprintf(w, "total runtime: %v\n", time.Since(began).Round(time.Millisecond))
}

// reportStore replays a -store directory's write-ahead log into a fresh
// event store and prints what the capture holds. It prefers the farm
// journal (decoydb writes DIR/journal) and falls back to a collector's
// journal (dbcollect writes DIR/collector).
func reportStore(w io.Writer, storeFlag *cliflags.Store) error {
	subdir := ""
	for _, cand := range []string{"journal", "collector"} {
		if fi, err := os.Stat(filepath.Join(storeFlag.Dir(), cand)); err == nil && fi.IsDir() {
			subdir = cand
			break
		}
	}
	if subdir == "" {
		return fmt.Errorf("-store %s: no journal/ or collector/ subdirectory — nothing was captured here", storeFlag.Dir())
	}

	began := time.Now()
	l, err := storeFlag.Open(subdir, log.Printf)
	if err != nil {
		return err
	}
	defer l.Close()

	store := evstore.New(core.ExperimentStart, core.ExperimentDays, geoip.Default())
	farms := map[string]relay.FarmMark{}
	replayed, err := store.AttachWAL(l, func(tag []byte) {
		if farm, epoch, seq, ok := relay.DecodeSourceTag(tag); ok {
			farms[farm] = relay.FarmMark{Epoch: epoch, LastSeq: seq}
		}
	})
	if err != nil {
		return err
	}
	st := l.Stats()
	fmt.Fprintf(w, "decoydb capture report — %s (replayed %d events in %v)\n\n",
		st.Dir, replayed, time.Since(began).Round(time.Millisecond))

	// The zero tier always parses, so Respond cannot fail here.
	q, _ := obs.NewQueryHandler(obs.QueryOptions{Store: store}).Respond(obs.QueryRequest{Creds: 10})

	durability := &report.Table{Title: "Durability", Header: []string{"metric", "value"}}
	durability.AddRow("segments", st.Segments)
	durability.AddRow("batches recovered", st.Recovered.Batches)
	durability.AddRow("last sequence", st.LastSeq)
	durability.AddRow("consumer mark", st.Mark)
	durability.AddRow("torn bytes discarded", st.Recovered.TornBytes)
	durability.AddRow("tail truncations", st.Recovered.Truncations)
	if st.Recovered.TornBytes > 0 {
		durability.Note = "a torn tail was cut at the last valid record; everything above survived the crash"
	}

	tables := append(obs.CaptureTables(nil, &q), durability)
	if len(farms) > 0 {
		ft := &report.Table{
			Title:  "Farm marks",
			Header: []string{"farm", "epoch", "last seq"},
			Note:   "per-farm dedup high-water marks journaled by the collector",
		}
		names := make([]string, 0, len(farms))
		for name := range farms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := farms[name]
			ft.AddRow(name, fmt.Sprintf("%#x", m.Epoch), m.LastSeq)
		}
		tables = append(tables, ft)
	}
	for _, t := range tables {
		fmt.Fprintf(w, "=== Store — %s ===\n%s\n", t.Title, t)
	}
	return nil
}

// liveLimit is how many source rows a -live report pulls from /query.
const liveLimit = 20

// reportLive renders a point-in-time report from a running collector's
// admin plane via obs.Client: /query carries the store-derived
// aggregates, /statusz the relay transport counters. Partial planes
// degrade gracefully — a farm binary serves /statusz but not /query,
// and the report says so instead of failing. A collector running with
// -peers answers /query for its whole tier; the report then carries a
// "Collector tier" table showing who contributed.
func reportLive(w io.Writer, addr string) error {
	client := obs.NewClient(addr, 10*time.Second)
	ctx := context.Background()

	// statusz is a map of source name -> raw status; only the sections
	// this report renders are decoded, the rest stay opaque.
	status, err := client.Statusz(ctx)
	if err != nil {
		return fmt.Errorf("is the admin plane up (-admin on the collector)? %w", err)
	}
	fmt.Fprintf(w, "decoydb live report — %s\n\n", client.Base())

	var cst *relay.CollectorStats
	if st, ok, err := obs.CollectorFromStatus(status); err != nil {
		return err
	} else if ok {
		cst = &st
	}
	q, err := client.Query(ctx, obs.QueryRequest{Creds: 10, Limit: liveLimit})
	tables := obs.CaptureTables(cst, q)
	if err != nil {
		tables = append(tables, &report.Table{
			Title:  "Capture",
			Header: []string{"metric", "value"},
			Note:   fmt.Sprintf("no /query endpoint here (%v) — farms serve metrics only; point -live at a dbcollect admin address", err),
		})
	}

	// Streaming analysis, when the plane runs with -stream: recent
	// escalations and the top behaviour clusters. A plane without the
	// analyzer has no /alerts endpoint; the sections are simply omitted —
	// same graceful degradation as /query above, but silent, because an
	// un-wired optional subsystem is not worth a note.
	if page, err := client.Alerts(ctx, liveLimit); err == nil {
		alerts := &report.Table{
			Title:  "Recent escalations",
			Header: []string{"time", "src", "dbms", "transition", "action"},
		}
		for _, a := range page.Alerts {
			if a.Kind != stream.EscalationAlert {
				continue
			}
			alerts.AddRow(a.Time.Format(time.RFC3339), a.Src, a.DBMS, a.From+"→"+a.To, a.Action)
		}
		alerts.Note = fmt.Sprintf("lifetime: %d escalations, %d new clusters, %d shifts over %d events from %d sources",
			page.Stats.Escalations, page.Stats.NewClusters, page.Stats.Shifts, page.Stats.Events, page.Stats.Sources)
		tables = append(tables, alerts)

		if cl, err := client.Clusters(ctx); err == nil {
			clusters := &report.Table{
				Title:  "Behaviour clusters",
				Header: []string{"cluster", "members", "assigns", "top actions"},
			}
			for i, c := range cl.Clusters {
				if i >= liveLimit {
					clusters.Note = fmt.Sprintf("first %d of %d clusters by member count", liveLimit, len(cl.Clusters))
					break
				}
				clusters.AddRow(c.ID, c.Members, c.Assigns, strings.Join(c.TopActions, ", "))
			}
			tables = append(tables, clusters)
		}
	}

	for _, t := range tables {
		fmt.Fprintf(w, "=== Live — %s ===\n%s\n", t.Title, t)
	}
	return nil
}
