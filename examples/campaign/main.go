// Campaign: run a compressed deployment simulation, then cluster the
// captured medium/high-interaction behaviour with TF + Ward linkage and
// tag the clusters with the campaigns they match — the paper's Section
// 6.1/6.2 workflow end to end.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"decoydb/internal/cluster"
	"decoydb/internal/core"
	"decoydb/internal/experiments"
)

func main() {
	log.SetFlags(0)
	fmt.Println("simulating the 20-day deployment (compressed brute-force volume)...")
	ds, err := experiments.Build(context.Background(), 1, 4096)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d events from %d sources\n\n", ds.Snap.Events(), len(ds.Recs))

	for _, dbms := range []string{core.Redis, core.Postgres, core.Elastic, core.MongoDB} {
		res, raws := ds.ClusterFor(dbms)
		tags := cluster.TagClusters(res, raws)
		fmt.Printf("%s: %d sources grouped into %d behaviour clusters\n",
			dbms, len(res.Sequences), res.Clusters)

		// Report tagged campaigns, largest first.
		type row struct {
			label int
			tag   string
			size  int
		}
		var rows []row
		sizes := res.Sizes()
		for label, tag := range tags {
			rows = append(rows, row{label, tag, sizes[label]})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].size != rows[j].size {
				return rows[i].size > rows[j].size
			}
			return rows[i].tag < rows[j].tag
		})
		for _, r := range rows {
			members := res.Members(r.label)
			sample := members[0]
			fmt.Printf("  campaign %-22s %4d IPs (e.g. %s)\n", r.tag, r.size, sample)
		}
		fmt.Println()
	}
	fmt.Println("campaign OK")
}
