package obs

import (
	"fmt"
	"io"
	"net/netip"
	"testing"
	"time"

	"decoydb/internal/bus"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
)

// BenchmarkBusIngestScrape measures the acceptance bound for the
// scrape-time adapter design: bus→store ingest throughput with no
// scraper versus with a scraper taking a full /metrics pass every
// 100ms — two orders of magnitude hotter than a real 15s Prometheus
// cadence, but slow enough that on a single-core runner the scrape CPU
// it steals from the ingest loop stays inside the 5% budget CI asserts
// via benchjson -maxratio.
func BenchmarkBusIngestScrape(b *testing.B) {
	for _, scrape := range []bool{false, true} {
		name := "scrape=off"
		if scrape {
			name = "scrape=on"
		}
		b.Run(name, func(b *testing.B) {
			benchBusIngest(b, scrape)
		})
	}
}

func benchBusIngest(b *testing.B, scrape bool) {
	const sources = 512
	hp := core.Info{DBMS: core.Redis, Level: core.Low, Group: core.GroupMulti, Config: core.ConfigDefault}
	events := make([]core.Event, sources)
	for i := range events {
		events[i] = core.Event{
			Time:     traceStart.Add(time.Duration(i) * time.Second),
			Src:      netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)}), 40000),
			Honeypot: hp, Kind: core.EventLogin,
			User: "root", Pass: fmt.Sprintf("pw%d", i%16),
		}
	}

	store := evstore.New(traceStart, 20, nil)
	kinds := &bus.StatsSink{}
	eb := bus.New(bus.Options{Policy: bus.Block}, store, kinds)

	reg := NewRegistry()
	reg.Register(BusSource(eb))
	reg.Register(KindSource(kinds))
	reg.Register(StoreSource(store))

	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	if scrape {
		go func() {
			defer close(scraperDone)
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if err := reg.WriteMetrics(io.Discard); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}()
	} else {
		close(scraperDone)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eb.Record(events[i%sources])
	}
	eb.Close()
	b.StopTimer()
	close(stop)
	<-scraperDone
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
