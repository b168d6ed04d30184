// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (see DESIGN.md Section 5 for the index), plus ablations of
// the design choices. Each benchmark regenerates its artefact from a
// shared simulated dataset; run with
//
//	go test -bench=. -benchmem
//
// The dataset is built once per process (outside the timed region) at a
// compressed brute-force scale; per-table absolute volumes rescale by the
// scale factor, while every distributional claim is scale-invariant.
package decoydb

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decoydb/internal/bus"
	"decoydb/internal/cluster"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/experiments"
	"decoydb/internal/geoip"
	"decoydb/internal/mssql"
	"decoydb/internal/pipeline"
	"decoydb/internal/report"
	"decoydb/internal/simnet"
	"decoydb/internal/wal"
)

// benchScale compresses brute-force volume for the benchmark dataset.
const benchScale = 2048

var (
	dsOnce sync.Once
	dsVal  *experiments.Dataset
	dsErr  error
)

func dataset(b *testing.B) *experiments.Dataset {
	b.Helper()
	dsOnce.Do(func() {
		dsVal, dsErr = experiments.Build(context.Background(), 1, benchScale)
	})
	if dsErr != nil {
		b.Fatal(dsErr)
	}
	return dsVal
}

// benchExperiment times regenerating one paper artefact.
func benchExperiment(b *testing.B, id string) {
	ds := dataset(b)
	exp := experiments.ByID(id)
	if exp == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	var art report.Artifact
	for i := 0; i < b.N; i++ {
		art = exp.Run(ds)
	}
	if art.Body == "" {
		b.Fatal("empty artefact")
	}
}

// --- Headline counts and figures ---

func BenchmarkHeadlineCounts(b *testing.B) { benchExperiment(b, "H1") }
func BenchmarkFigure2(b *testing.B)        { benchExperiment(b, "F2") }
func BenchmarkFigure3(b *testing.B)        { benchExperiment(b, "F3") }
func BenchmarkFigure4(b *testing.B)        { benchExperiment(b, "F4") }
func BenchmarkFigure5(b *testing.B)        { benchExperiment(b, "F5") }
func BenchmarkFigures6to9(b *testing.B)    { benchExperiment(b, "F6-F9") }

// --- Tables ---

func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "T4") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "T5") }
func BenchmarkTable6(b *testing.B)  { benchExperiment(b, "T6") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "T7") }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "T8") }
func BenchmarkTable9(b *testing.B)  { benchExperiment(b, "T9") }
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "T10") }
func BenchmarkTable11(b *testing.B) { benchExperiment(b, "T11") }
func BenchmarkTable12(b *testing.B) { benchExperiment(b, "T12") }

// --- Section statistics ---

func BenchmarkBruteForceStats(b *testing.B) { benchExperiment(b, "X1") }
func BenchmarkControlGroup(b *testing.B)    { benchExperiment(b, "X2") }
func BenchmarkIntelCoverage(b *testing.B)   { benchExperiment(b, "X3") }
func BenchmarkConfigEffects(b *testing.B)   { benchExperiment(b, "X4") }
func BenchmarkRansom(b *testing.B)          { benchExperiment(b, "X5") }
func BenchmarkInstitutional(b *testing.B)   { benchExperiment(b, "X6") }

// BenchmarkSimulation measures the end-to-end data collection itself:
// the full 278-honeypot deployment under the synthetic Internet, every
// session over a real connection.
func BenchmarkSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		store := evstore.New(core.ExperimentStart, core.ExperimentDays, geoip.Default())
		res, err := simnet.Run(context.Background(), simnet.Config{Seed: int64(i + 1), Scale: 1 << 14}, store)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Sessions), "sessions/op")
	}
}

// --- Ablation A1: TF clustering vs payload-exact grouping ---
//
// The paper argues (Section 6.1) that clustering on normalised action
// frequencies groups bot runs that randomise payload parameters, where
// payload-exact grouping fragments them. The metric is the number of
// groups the P2PInfect campaign (one bot, 35 sources, randomised hashes
// and loader addresses) splits into.
func BenchmarkAblationClustering(b *testing.B) {
	ds := dataset(b)
	res, raws := ds.ClusterFor(core.Redis)

	members := map[string]bool{}
	for _, seq := range res.Sequences {
		if cluster.TagSequence(seq.Actions, raws[seq.ID]) == cluster.TagP2PInfect {
			members[seq.ID] = true
		}
	}
	if len(members) == 0 {
		b.Fatal("no p2pinfect members in dataset")
	}

	var tfGroups, exactGroups int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// TF route: distinct cluster labels among campaign members.
		labels := map[int]bool{}
		for j, seq := range res.Sequences {
			if members[seq.ID] {
				labels[res.Labels[j]] = true
			}
		}
		tfGroups = len(labels)
		// Payload-exact route: group by the exact raw payload bytes.
		exact := map[string]bool{}
		for _, seq := range res.Sequences {
			if members[seq.ID] {
				joined := ""
				for _, r := range raws[seq.ID] {
					joined += r
				}
				exact[joined] = true
			}
		}
		exactGroups = len(exact)
	}
	b.ReportMetric(float64(tfGroups), "tf-groups")
	b.ReportMetric(float64(exactGroups), "payload-groups")
	if tfGroups >= exactGroups {
		b.Fatalf("TF clustering (%d groups) did not consolidate hash-randomised runs (payload-exact: %d)", tfGroups, exactGroups)
	}
}

// --- Ablation A2: Ward vs single/complete linkage ---
//
// Quality metric: weighted purity of clusters against campaign ground
// truth (the tag of each sequence), at the cluster count Ward produced.
func BenchmarkAblationLinkage(b *testing.B) {
	ds := dataset(b)
	res, raws := ds.ClusterFor(core.Redis)
	seqs := res.Sequences
	vecs, _ := cluster.Vectorize(seqs)
	truth := make([]string, len(seqs))
	for i, seq := range seqs {
		truth[i] = cluster.TagSequence(seq.Actions, raws[seq.ID])
	}
	k := res.Clusters

	purity := func(labels []int) float64 {
		byCluster := map[int]map[string]int{}
		for i, l := range labels {
			if byCluster[l] == nil {
				byCluster[l] = map[string]int{}
			}
			byCluster[l][truth[i]]++
		}
		correct := 0
		for _, counts := range byCluster {
			best := 0
			for _, n := range counts {
				if n > best {
					best = n
				}
			}
			correct += best
		}
		return float64(correct) / float64(len(labels))
	}

	var ward, single, complete float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ward = purity(cluster.Agglomerate(vecs, cluster.WardLinkage).CutK(k))
		single = purity(cluster.Agglomerate(vecs, cluster.SingleLinkage).CutK(k))
		complete = purity(cluster.Agglomerate(vecs, cluster.CompleteLinkage).CutK(k))
	}
	b.ReportMetric(ward*100, "ward-purity-%")
	b.ReportMetric(single*100, "single-purity-%")
	b.ReportMetric(complete*100, "complete-purity-%")
}

// --- Ablation A3: aggregated login store vs naive per-event storage ---
//
// The evstore aggregates login events into credential counters; a naive
// design keeps every event. At the paper's 18.16M logins the naive store
// is untenable; this ablation measures the per-event cost of both at a
// smaller volume.
func BenchmarkAblationLoginStore(b *testing.B) {
	const events = 100_000
	src := netip.AddrPortFrom(netip.MustParseAddr("198.51.100.77"), 1000)
	hp := core.Info{DBMS: core.MSSQL, Level: core.Low, Config: core.ConfigDefault, Group: core.GroupMulti}
	mkEvent := func(i int) core.Event {
		return core.Event{
			Time: core.ExperimentStart, Src: src, Honeypot: hp,
			Kind: core.EventLogin,
			User: "sa", Pass: fmt.Sprintf("pw%d", i%5000),
		}
	}
	b.Run("aggregated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			store := evstore.New(core.ExperimentStart, core.ExperimentDays, nil)
			for j := 0; j < events; j++ {
				store.Record(mkEvent(j))
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := &core.MemSink{}
			for j := 0; j < events; j++ {
				sink.Record(mkEvent(j))
			}
			if sink.Len() != events {
				b.Fatal("lost events")
			}
		}
	})
}

// --- Event transport: the bus between sessions and sinks ---

// busWorkSink models a realistic consumer: light per-event CPU (a hash
// over the credential fields) plus a fixed per-delivery latency — the
// flush/fsync/RTT cost any durable sink pays per batch. The latency is
// a wait, not a spin, so shard workers overlap it; delivery parallelism
// is the variable under test even on few cores. It implements
// core.BatchSink and holds no shared lock.
type busWorkSink struct {
	n atomic.Uint64
}

// busSinkLatency is the simulated per-delivery (per-batch) commit cost.
const busSinkLatency = 100 * time.Microsecond

func (s *busWorkSink) work(e core.Event) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range []byte(e.User) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for _, c := range []byte(e.Pass) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for _, c := range []byte(e.Raw) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func (s *busWorkSink) Record(e core.Event) {
	time.Sleep(busSinkLatency)
	s.n.Add(s.work(e)%2 + 1) // data-dependent so the work isn't dead code
}

func (s *busWorkSink) RecordBatch(events []core.Event) error {
	time.Sleep(busSinkLatency)
	var n uint64
	for _, e := range events {
		n += s.work(e)%2 + 1
	}
	s.n.Add(n)
	return nil
}

// busShardN is the multi-shard configuration under test: GOMAXPROCS,
// but at least 4 so the delivery-overlap effect is measurable on small
// machines too.
func busShardN() int {
	if n := runtime.GOMAXPROCS(0); n > 4 {
		return n
	}
	return 4
}

// benchBus measures ingest throughput (Record calls per second) through
// a bus with the given options. Producers run on all cores with distinct
// source IPs, the shape of a farm under Internet-wide load.
func benchBus(b *testing.B, opts bus.Options) {
	sink := &busWorkSink{}
	opts.QueueSize = 4096
	evbus := bus.New(opts, sink)
	raw := "N'4120BA6D...x" // bounded payload excerpt, exercises the hash
	var src atomic.Uint32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := src.Add(1)
		i := uint32(0)
		for pb.Next() {
			i++
			ip := netip.AddrFrom4([4]byte{10, byte(id), byte(i >> 8), byte(i)})
			evbus.Record(core.Event{
				Time: core.ExperimentStart,
				Src:  netip.AddrPortFrom(ip, 1024),
				Honeypot: core.Info{
					DBMS: core.MSSQL, Level: core.Low,
					Config: core.ConfigDefault, Group: core.GroupMulti,
				},
				Kind: core.EventLogin, User: "sa", Pass: "P@ssw0rd!", Raw: raw,
			})
		}
	})
	b.StopTimer()
	if err := evbus.Close(); err != nil {
		b.Fatal(err)
	}
	st := evbus.Stats()
	b.ReportMetric(float64(st.Delivered), "delivered")
	b.ReportMetric(float64(st.Dropped), "dropped")
	b.ReportMetric(st.MeanBatch(), "batch-size")
}

func BenchmarkBusShard1Block(b *testing.B) { benchBus(b, bus.Options{Shards: 1, Policy: bus.Block}) }
func BenchmarkBusShardNBlock(b *testing.B) {
	benchBus(b, bus.Options{Shards: busShardN(), Policy: bus.Block})
}
func BenchmarkBusShard1Drop(b *testing.B) { benchBus(b, bus.Options{Shards: 1, Policy: bus.Drop}) }
func BenchmarkBusShardNDrop(b *testing.B) {
	benchBus(b, bus.Options{Shards: busShardN(), Policy: bus.Drop})
}

// BenchmarkBusAdaptive pins the Adaptive fast path against Block: with
// the high-water mark above the queue size, shedding can never engage,
// so the only difference from BenchmarkBusShardNBlock is the per-Record
// admission check. The two must stay within noise of each other.
func BenchmarkBusAdaptive(b *testing.B) {
	benchBus(b, bus.Options{Shards: busShardN(), Policy: bus.Adaptive, HighWater: 1 << 30})
}

// BenchmarkBusSinkModes compares batched vs per-event delivery into the
// real LogWriter — the amortisation RecordBatch buys on the hot path.
func BenchmarkBusSinkModes(b *testing.B) {
	mkEvent := func(i int) core.Event {
		return core.Event{
			Time: core.ExperimentStart,
			Src:  netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), 1024),
			Honeypot: core.Info{
				DBMS: core.MSSQL, Level: core.Low,
				Config: core.ConfigDefault, Group: core.GroupMulti,
			},
			Kind: core.EventLogin, User: "sa", Pass: fmt.Sprintf("pw%d", i),
		}
	}
	batch := make([]core.Event, 256)
	for i := range batch {
		batch[i] = mkEvent(i)
	}
	b.Run("batch", func(b *testing.B) {
		lw, err := pipeline.NewLogWriter(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer lw.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := lw.RecordBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-event", func(b *testing.B) {
		lw, err := pipeline.NewLogWriter(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer lw.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, e := range batch {
				lw.Record(e)
			}
		}
	})
}

// --- Event store: sharded ingest vs the seed's single mutex ---

// storeIngestWorkers is the delivery parallelism offered upstream: the
// bus runs one worker per bus shard, so the store sees this many
// concurrent RecordBatch callers regardless of its own shard count.
const storeIngestWorkers = 8

// BenchmarkStoreIngest measures committed events per second into the
// store under the bus delivery pattern: storeIngestWorkers goroutines,
// each repeatedly committing a shard-affine 256-event batch (all
// sources in a batch hash to that worker's bus shard, exactly what the
// sharded bus delivers). The variable is the store's shard count:
// shards=1 is the seed's single-mutex layout, where every worker
// serialises on one lock; shards=8 matches the bus shard count, so each
// batch commits under its own shard lock with zero cross-shard
// contention. One op is one batch per worker. Speedup requires real
// cores: on a single-CPU machine the workers time-slice and the ratio
// collapses to ~1x — see DESIGN.md for reference numbers.
func BenchmarkStoreIngest(b *testing.B) {
	const batchSize = 256
	// Pre-build one batch per worker, partitioned the way the bus
	// partitions: worker w owns the sources with ShardOf(addr, workers) == w.
	batches := make([][]core.Event, storeIngestWorkers)
	hp := core.Info{DBMS: core.MSSQL, Level: core.Low, Config: core.ConfigDefault, Group: core.GroupMulti}
	for i, filled := 0, 0; filled < storeIngestWorkers; i++ {
		addr := netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)})
		w := core.ShardOf(addr, storeIngestWorkers)
		if len(batches[w]) == batchSize {
			continue
		}
		batches[w] = append(batches[w], core.Event{
			Time: core.ExperimentStart, Src: netip.AddrPortFrom(addr, 1024),
			Honeypot: hp, Kind: core.EventLogin,
			User: "sa", Pass: fmt.Sprintf("pw%d", i%16),
		})
		if len(batches[w]) == batchSize {
			filled++
		}
	}
	shardCounts := []int{1, storeIngestWorkers}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != storeIngestWorkers {
		shardCounts = append(shardCounts, n)
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			store := evstore.NewSharded(core.ExperimentStart, core.ExperimentDays, nil, shards)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < storeIngestWorkers; w++ {
				wg.Add(1)
				go func(batch []core.Event) {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						if err := store.RecordBatch(batch); err != nil {
							b.Error(err)
							return
						}
					}
				}(batches[w])
			}
			wg.Wait()
			b.StopTimer()
			events := int64(b.N) * storeIngestWorkers * batchSize
			if store.Events() != events {
				b.Fatalf("store has %d events, want %d", store.Events(), events)
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkStoreIngestWAL is BenchmarkStoreIngest's shards=N case with
// the write-ahead journal attached (interval fsync, the decoydb -store
// default): the price of crash-durable ingest over pure in-memory
// aggregation. The journal serialises appends on one lock, so this also
// bounds how much of the sharded store's parallelism durability costs.
func BenchmarkStoreIngestWAL(b *testing.B) {
	const batchSize = 256
	batches := make([][]core.Event, storeIngestWorkers)
	hp := core.Info{DBMS: core.MSSQL, Level: core.Low, Config: core.ConfigDefault, Group: core.GroupMulti}
	for i, filled := 0, 0; filled < storeIngestWorkers; i++ {
		addr := netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)})
		w := core.ShardOf(addr, storeIngestWorkers)
		if len(batches[w]) == batchSize {
			continue
		}
		batches[w] = append(batches[w], core.Event{
			Time: core.ExperimentStart, Src: netip.AddrPortFrom(addr, 1024),
			Honeypot: hp, Kind: core.EventLogin,
			User: "sa", Pass: fmt.Sprintf("pw%d", i%16),
		})
		if len(batches[w]) == batchSize {
			filled++
		}
	}
	b.Run(fmt.Sprintf("shards=%d", storeIngestWorkers), func(b *testing.B) {
		l, err := wal.Open(wal.Options{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		store := evstore.NewSharded(core.ExperimentStart, core.ExperimentDays, nil, storeIngestWorkers)
		if _, err := store.AttachWAL(l, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < storeIngestWorkers; w++ {
			wg.Add(1)
			go func(batch []core.Event) {
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					if err := store.RecordBatch(batch); err != nil {
						b.Error(err)
						return
					}
				}
			}(batches[w])
		}
		wg.Wait()
		b.StopTimer()
		events := int64(b.N) * storeIngestWorkers * batchSize
		if store.Events() != events {
			b.Fatalf("store has %d events, want %d", store.Events(), events)
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	})
}

// The end-to-end benchmark collector's preload, at its size: ~7k
// sources, first seen in no particular address order, with hourly
// connects over 20 days, and ~108k distinct low-tier credentials of which
// the first hundred are tried most, as in the paper's Table 12.
const (
	preloadSources = 7_040
	preloadCreds   = 107_917
)

var preloadHoneypot = core.Info{DBMS: core.MSSQL, Level: core.Low, Config: core.ConfigDefault, Group: core.GroupMulti}

// preloadSrc is preload source i's address: a bijection of i that
// scatters the sources over the address space.
func preloadSrc(i int) netip.AddrPort {
	a := uint32(i+1) * 2654435761
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}), 1024)
}

func preloadAt(day, hour int) time.Time {
	return core.ExperimentStart.Add(time.Duration(day*24+hour) * time.Hour)
}

// preloadBatches returns the preload as the commit-sized batches a
// collector's start-up ingests, built once per process. Each source is
// active on a third of the days, four hours a day; each credential is
// first seen once, the first hundred tried up to a hundred times more.
var preloadBatches = sync.OnceValue(func() [][]core.Event {
	var out [][]core.Event
	batch := make([]core.Event, 0, 4096)
	commit := func() {
		out = append(out, batch)
		batch = make([]core.Event, 0, 4096)
	}
	for i := 0; i < preloadSources; i++ {
		for day := i % 3; day < core.ExperimentDays; day += 3 {
			for h := 0; h < 4; h++ {
				batch = append(batch, core.Event{Time: preloadAt(day, (i+6*h)%24), Src: preloadSrc(i), Honeypot: preloadHoneypot, Kind: core.EventConnect})
			}
		}
		if len(batch) > 3500 {
			commit()
		}
	}
	for c := 0; c < preloadCreds; c++ {
		e := core.Event{Time: preloadAt(c%core.ExperimentDays, c%24), Src: preloadSrc(c % preloadSources), Honeypot: preloadHoneypot, Kind: core.EventLogin}
		e.User, e.Pass = fmt.Sprintf("user%d", c%5000), fmt.Sprintf("pass%d", c)
		for tries := 1 + max(0, 100-c); tries > 0; tries-- {
			batch = append(batch, e)
		}
		if len(batch) >= cap(batch)-128 {
			commit()
		}
	}
	commit()
	return out
})

// preloadStore ingests the preload into a fresh one-shard store, as the
// end-to-end benchmark collector's store is.
func preloadStore(b *testing.B) *evstore.Store {
	store := evstore.NewSharded(core.ExperimentStart, core.ExperimentDays, nil, 1)
	for _, batch := range preloadBatches() {
		if err := store.RecordBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	return store
}

// BenchmarkStorePreload measures the store's share of a collector's
// cold start: one op ingests the whole preload into a fresh store, the
// path a WAL replay and bench/'s preload take.
func BenchmarkStorePreload(b *testing.B) {
	var events int
	for _, batch := range preloadBatches() {
		events += len(batch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if store := preloadStore(b); store.Events() != int64(events) {
			b.Fatalf("store has %d events, want %d", store.Events(), events)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkStoreSnapshot measures what a fresh /query costs the store:
// each op commits one small batch to existing sources, so the next
// snapshot's shared records are cloned on write, then takes a snapshot
// and reads what /query reads from it (the top ten credentials, the
// login total and a 20-record page) from a store holding the preload.
func BenchmarkStoreSnapshot(b *testing.B) {
	store := preloadStore(b)
	// The first snapshot numbers every credential the store holds; later
	// ones number only the credentials added since. Pay it untimed, as a
	// collector pays it once per process.
	store.Snapshot()

	q := evstore.Query{}
	batch := make([]core.Event, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			s := preloadSrc((i*8 + j) % preloadSources)
			login := core.Event{Time: preloadAt(19, 23), Src: s, Honeypot: preloadHoneypot, Kind: core.EventLogin, User: "sa", Pass: "123"}
			batch = append(batch, core.Event{Time: preloadAt(19, 23), Src: s, Honeypot: preloadHoneypot, Kind: core.EventConnect}, login)
		}
		if err := store.RecordBatch(batch); err != nil {
			b.Fatal(err)
		}
		batch = batch[:0]
		snap := store.Snapshot()
		if top := snap.Creds(q, 10); len(top) != 10 {
			b.Fatalf("top creds = %d rows", len(top))
		}
		if snap.Logins(q) < preloadCreds {
			b.Fatal("logins lost")
		}
		if page := snap.Select(q)[:20]; page[19].TotalLogins() == 0 {
			b.Fatal("page record without logins")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "snapshots/s")
}

// --- Protocol microbenchmark: the hottest parse in the system ---

// BenchmarkTDSLoginParse measures LOGIN7 parsing, of which the paper-scale
// dataset contains 18 million.
func BenchmarkTDSLoginParse(b *testing.B) {
	payload := mssql.EncodeLogin7(mssql.Login7{
		HostName: "WIN-BRUTE", UserName: "sa", Password: "P@ssw0rd", AppName: "OSQL-32",
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, err := mssql.ParseLogin7(payload)
		if err != nil || l.UserName != "sa" {
			b.Fatal(err)
		}
	}
}
