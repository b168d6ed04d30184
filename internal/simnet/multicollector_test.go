package simnet_test

// The collector-tier drill: two farm-side forwarders spread over three
// real dbcollect processes by rendezvous hash, the collector chosen by
// the first farm is SIGKILLed in the middle of a durable flood, the
// farm fails over down its ranking, the dead collector is restarted
// over the same -store, and the tier's merged /query (served by a
// surviving collector running -peers) must account for every acked
// event exactly once — the end-to-end proof that rendezvous
// forwarding, frame pinning, WAL replay dedup, and the query fan-in
// compose into one logical lossless capture.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"decoydb/internal/obs"
	"decoydb/internal/relay"
	"decoydb/internal/wal"
)

// tierProc is one dbcollect process in the tier, restartable over the
// same store directory and addresses.
type tierProc struct {
	bin       string
	relayAddr string
	adminAddr string
	peers     []string // the OTHER collectors' admin addresses
	storeDir  string
	cmd       *exec.Cmd
	out       *bytes.Buffer
}

func (p *tierProc) start(t *testing.T) {
	t.Helper()
	p.out = &bytes.Buffer{}
	p.cmd = exec.Command(p.bin,
		"-token", "multitok",
		"-listen", p.relayAddr,
		"-admin", p.adminAddr,
		"-peers", strings.Join(p.peers, ","),
		"-store", p.storeDir,
		"-statsevery", "0",
	)
	p.cmd.Stdout = p.out
	p.cmd.Stderr = os.Stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start dbcollect %s: %v", p.relayAddr, err)
	}
	// Ready when both planes accept: the relay listener and the admin
	// HTTP server.
	for _, addr := range []string{p.relayAddr, p.adminAddr} {
		addr := addr
		waitUntil(t, 15*time.Second, func() bool {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return false
			}
			c.Close()
			return true
		}, "dbcollect to listen on "+addr)
	}
}

// reservePorts grabs n distinct loopback ports and frees them for the
// collector processes to bind. Racy in principle; in practice the
// kernel does not reassign them within the test's lifetime.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func TestMultiCollectorFailoverExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs real dbcollect processes; skipped with -short")
	}
	if runtime.GOOS == "windows" {
		t.Skip("needs SIGKILL/SIGTERM semantics")
	}

	tmp := t.TempDir()
	bin := buildCollector(t)

	relayAddrs := reservePorts(t, 3)
	adminAddrs := reservePorts(t, 3)

	procs := make([]*tierProc, 3)
	for i := range procs {
		var peers []string
		for j, a := range adminAddrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		procs[i] = &tierProc{
			bin: bin, relayAddr: relayAddrs[i], adminAddr: adminAddrs[i],
			peers: peers, storeDir: filepath.Join(tmp, fmt.Sprintf("store%d", i)),
		}
		procs[i].start(t)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p.cmd != nil && p.cmd.Process != nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
		}
	})

	// Two farms over the same endpoint set, exactly what two `decoydb
	// -store -forward "addrs=..."` deployments run: blocking (lossless)
	// forwarders with durable spools. Short backoff/failback so the
	// drill's cutover and failback land in test time.
	newFarm := func(name string) (*relay.ForwardSink, *wal.Log) {
		spool, err := wal.Open(wal.Options{Dir: filepath.Join(tmp, "spool-"+name)})
		if err != nil {
			t.Fatal(err)
		}
		fwd, err := relay.NewForwardSink(relay.ForwardOptions{
			Addrs: relayAddrs, Token: "multitok", Farm: name,
			Block: true, SpoolWAL: spool, FrameEvents: 100,
			MinBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
			FailbackInterval: 100 * time.Millisecond,
			FlushTimeout:     30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fwd, spool
	}
	fwd1, spool1 := newFarm("multi-farm-a")
	fwd2, spool2 := newFarm("multi-farm-b")

	// The rendezvous-chosen collector for farm A is the one we kill;
	// RankEndpoints is the same computation the forwarder runs, so the
	// choice is deterministic and observable from outside.
	chosen := relay.RankEndpoints("multi-farm-a", relayAddrs)[0]
	var victim *tierProc
	for _, p := range procs {
		if p.relayAddr == chosen {
			victim = p
		}
	}

	// Distinct event ranges per farm so the merged capture is easy to
	// audit: farm A sends [0, totalA), farm B [50000, 50000+totalB).
	totalA, totalB := 0, 0
	sendA := func(n int) {
		t.Helper()
		if err := fwd1.RecordBatch(crashEvents(totalA, n)); err != nil {
			t.Fatal(err)
		}
		totalA += n
	}
	sendB := func(n int) {
		t.Helper()
		if err := fwd2.RecordBatch(crashEvents(50000+totalB, n)); err != nil {
			t.Fatal(err)
		}
		totalB += n
	}

	// Phase 1: flood until farm A's chosen collector has acked at least
	// one frame, so the SIGKILL lands mid-conversation.
	for i := 0; i < 10; i++ {
		sendA(100)
		sendB(100)
	}
	waitUntil(t, 15*time.Second, func() bool { return spool1.Mark() > 0 }, "first ack to farm A")
	waitUntil(t, 15*time.Second, func() bool { return spool2.Mark() > 0 }, "first ack to farm B")

	// SIGKILL the rendezvous-chosen collector: no flush, no goodbye.
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.cmd.Wait()

	// Phase 2: the flood continues into the outage. Farm A must fail
	// over to its next-ranked collector; frames already written into
	// the dying socket stay pinned to the victim and wait for it.
	for i := 0; i < 10; i++ {
		sendA(100)
		sendB(100)
	}
	waitUntil(t, 15*time.Second, func() bool { return fwd1.Stats().Failovers > 0 },
		"farm A to fail over")

	// Phase 3: restart the victim over the same -store and addresses.
	// Replay rebuilds its aggregates and farm marks, so the pinned
	// frames farm A retransmits on failback are deduplicated, never
	// double counted.
	victim.start(t)
	for i := 0; i < 10; i++ {
		sendA(100)
		sendB(100)
	}

	fwd1.Flush()
	fwd2.Flush()
	waitUntil(t, 60*time.Second, func() bool {
		return fwd1.Stats().SpoolFrames == 0 && spool1.Mark() == spool1.LastSeq()
	}, "farm A spool to drain")
	waitUntil(t, 60*time.Second, func() bool {
		return fwd2.Stats().SpoolFrames == 0 && spool2.Mark() == spool2.LastSeq()
	}, "farm B spool to drain")
	st1, st2 := fwd1.Stats(), fwd2.Stats()
	if err := fwd1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fwd2.Close(); err != nil {
		t.Fatal(err)
	}
	spool1.Close()
	spool2.Close()

	if got := st1.EventsAcked; got != uint64(totalA) {
		t.Fatalf("farm A acked %d events, sent %d", got, totalA)
	}
	if got := st2.EventsAcked; got != uint64(totalB) {
		t.Fatalf("farm B acked %d events, sent %d", got, totalB)
	}

	// The tier invariant: ANY collector's merged /query sees the whole
	// capture, every acked event exactly once. Ask a survivor (its
	// peer set includes the restarted victim) and the victim itself.
	for _, p := range procs {
		client := obs.NewClient(p.adminAddr, 10*time.Second)
		var q *obs.QueryResponse
		var err error
		// The restarted victim may still be warming up its peer
		// clients; retry until the whole tier responds.
		waitUntil(t, 30*time.Second, func() bool {
			q, err = client.Query(context.Background(), obs.QueryRequest{Limit: 1})
			return err == nil && q.Tier != nil && q.Tier.Responded == q.Tier.Collectors
		}, "full tier response via "+p.adminAddr)
		if q.Tier.Collectors != 3 {
			t.Fatalf("tier size via %s = %d, want 3", p.adminAddr, q.Tier.Collectors)
		}
		if got, want := q.Events, int64(totalA+totalB); got != want {
			t.Fatalf("merged /query via %s holds %d events, want exactly %d (every acked event once)",
				p.adminAddr, got, want)
		}
	}
	t.Logf("tier capture: %d+%d events, farm A failovers=%d reconnects=%d",
		totalA, totalB, st1.Failovers, st1.Reconnects)
}
