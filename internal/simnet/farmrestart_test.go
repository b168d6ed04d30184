package simnet_test

// The farm-restart drill: the failure the frame-ownership journal
// exists for. A durable farm — running as a real child process so it
// can be SIGKILLed — floods a two-collector tier, its preferred
// collector is frozen mid-conversation so frames pile up pinned to it
// unacked, the collector is killed, the farm fails over and the rest
// of the flood is acked by the survivor. Then the FARM is SIGKILLed
// with the spool WAL holding frames pinned to both collectors: the
// victim's unacked frames below the mark floor, and above them the
// survivor's already-acked frames that the floor could not pass.
//
// A fresh farm process restarted over the same spool must replay that
// WAL and retransmit each frame only to its journaled owner: the
// victim's frames to the restarted victim, the survivor's to the
// survivor (whose dedup mark absorbs them). Without the ownership
// journal every replayed frame is unowned, the preferred (victim)
// collector receives frames the survivor already ingested, and the
// tier double counts — which is exactly what the merged /query
// assertions at the bottom would catch.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"decoydb/internal/obs"
	"decoydb/internal/relay"
	"decoydb/internal/wal"
)

const (
	farmRestartName = "restart-farm"
	// farmRestartToken matches the -token every tierProc passes to
	// dbcollect.
	farmRestartToken = "multitok"
)

// TestFarmHelperProcess is not a test: it is the farm child process
// TestFarmRestartExactlyOnce re-execs, gated on an environment
// variable so the normal suite skips it. Mode "flood" opens the spool,
// forwards a fixed event stream, serves the relay stats on an admin
// plane for the parent to watch, and then blocks until SIGKILL. Mode
// "finish" reopens the same spool after the crash and drains it —
// retransmitting every surviving frame to its journaled owner — then
// exits cleanly so the parent knows the replay completed.
func TestFarmHelperProcess(t *testing.T) {
	mode := os.Getenv("DECOYDB_FARM_HELPER")
	if mode == "" {
		t.Skip("helper process for TestFarmRestartExactlyOnce")
	}
	atoi := func(k string) int {
		n, err := strconv.Atoi(os.Getenv(k))
		if err != nil {
			t.Fatalf("%s=%q: %v", k, os.Getenv(k), err)
		}
		return n
	}
	events, frame := atoi("DECOYDB_FARM_EVENTS"), atoi("DECOYDB_FARM_FRAME")
	spool, err := wal.Open(wal.Options{Dir: os.Getenv("DECOYDB_FARM_SPOOL")})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := relay.NewForwardSink(relay.ForwardOptions{
		Addrs: strings.Split(os.Getenv("DECOYDB_FARM_ADDRS"), ","),
		Token: farmRestartToken, Farm: farmRestartName,
		Block: true, SpoolWAL: spool, FrameEvents: frame,
		MinBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
		FailbackInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	switch mode {
	case "flood":
		reg := obs.NewRegistry()
		reg.Register(obs.ForwardSource(fwd))
		if _, err := obs.NewServer(obs.ServerOptions{Registry: reg}).Start(os.Getenv("DECOYDB_FARM_ADMIN")); err != nil {
			t.Fatal(err)
		}
		// One frame-sized batch per tick: each RecordBatch cuts and
		// journals a frame before returning, so every event this loop
		// got past is durable whenever the parent pulls the trigger.
		// The pacing leaves the parent time to freeze and kill the
		// victim collector while the flood is still running.
		for sent := 0; sent < events; sent += frame {
			if err := fwd.RecordBatch(crashEvents(sent, frame)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(150 * time.Millisecond)
		}
		select {} // hold the pins and the admin plane until SIGKILL

	case "finish":
		// The reload already happened inside NewForwardSink; the write
		// loop is retransmitting to journaled owners. Wait for the
		// spool to drain completely, then leave without incident.
		deadline := time.Now().Add(30 * time.Second)
		for {
			st := fwd.Stats()
			if st.SpoolFrames == 0 && st.Pending == 0 && spool.Mark() == spool.LastSeq() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("spool did not drain after restart: %+v (mark=%d last=%d)", st, spool.Mark(), spool.LastSeq())
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := fwd.Close(); err != nil {
			t.Fatal(err)
		}
		if err := spool.Close(); err != nil {
			t.Fatal(err)
		}

	default:
		t.Fatalf("unknown DECOYDB_FARM_HELPER mode %q", mode)
	}
}

// startFarmHelper re-execs this test binary as the farm child process.
func startFarmHelper(t *testing.T, mode, spoolDir string, addrs []string, adminAddr string, events, frame int) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestFarmHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		"DECOYDB_FARM_HELPER="+mode,
		"DECOYDB_FARM_SPOOL="+spoolDir,
		"DECOYDB_FARM_ADDRS="+strings.Join(addrs, ","),
		"DECOYDB_FARM_ADMIN="+adminAddr,
		fmt.Sprintf("DECOYDB_FARM_EVENTS=%d", events),
		fmt.Sprintf("DECOYDB_FARM_FRAME=%d", frame),
	)
	out := &bytes.Buffer{}
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start farm helper (%s): %v", mode, err)
	}
	return cmd
}

// farmRelayStats reads the flood helper's relay section off its admin
// plane. Any failure (plane not up yet, section missing) returns ok
// false so waitUntil conditions just poll again.
func farmRelayStats(adminAddr string) (relay.Stats, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	status, err := obs.NewClient(adminAddr, 2*time.Second).Statusz(ctx)
	if err != nil {
		return relay.Stats{}, false
	}
	raw, present := status["relay"]
	if !present {
		return relay.Stats{}, false
	}
	var st relay.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		return relay.Stats{}, false
	}
	return st, true
}

// endpointStats picks one collector's slice out of a relay snapshot.
func endpointStats(st relay.Stats, addr string) relay.EndpointStats {
	for _, ep := range st.Endpoints {
		if ep.Addr == addr {
			return ep
		}
	}
	return relay.EndpointStats{}
}

func TestFarmRestartExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dbcollect and SIGKILLs real processes; skipped with -short")
	}
	if runtime.GOOS == "windows" {
		t.Skip("needs SIGSTOP/SIGKILL semantics")
	}

	tmp := t.TempDir()
	bin := buildCollector(t)

	relayAddrs := reservePorts(t, 2)
	adminAddrs := reservePorts(t, 2)
	farmAdmin := reservePorts(t, 1)[0]

	procs := make([]*tierProc, 2)
	procByRelay := map[string]*tierProc{}
	adminByRelay := map[string]string{}
	for i := range procs {
		procs[i] = &tierProc{
			bin: bin, relayAddr: relayAddrs[i], adminAddr: adminAddrs[i],
			peers:    []string{adminAddrs[1-i]},
			storeDir: filepath.Join(tmp, fmt.Sprintf("store%d", i)),
		}
		procByRelay[relayAddrs[i]] = procs[i]
		adminByRelay[relayAddrs[i]] = adminAddrs[i]
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

	// The rendezvous ranking decides the script's cast: the farm
	// prefers ranked[0] (the victim), and fails over to ranked[1].
	ranked := relay.RankEndpoints(farmRestartName, relayAddrs)
	victimAddr, survivorAddr := ranked[0], ranked[1]
	victim := procByRelay[victimAddr]

	// 900 events in 50-event frames: well under the fan-in's exact
	// MaxLimit page, so the merged unique count is exact and any
	// double-ingested event shows up as Events > UniqueIPs.
	const totalEvents, frameEvents = 900, 50
	spoolDir := filepath.Join(tmp, "spool")
	flood := startFarmHelper(t, "flood", spoolDir, relayAddrs, farmAdmin, totalEvents, frameEvents)
	t.Cleanup(func() {
		flood.Process.Kill()
		flood.Wait()
	})

	// Phase 1: wait for the victim to ack a frame, so the freeze lands
	// mid-conversation on an established connection.
	waitUntil(t, 15*time.Second, func() bool {
		st, ok := farmRelayStats(farmAdmin)
		return ok && endpointStats(st, victimAddr).EventsAcked > 0
	}, "victim collector to ack the first frames")

	// Phase 2: SIGSTOP the victim. Its kernel keeps accepting frame
	// bytes but the frozen process acks nothing, so the continuing
	// flood piles up frames journaled as pinned to the victim — the
	// acked-but-maybe-ingested limbo the ownership journal is for.
	if err := victim.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 15*time.Second, func() bool {
		st, ok := farmRelayStats(farmAdmin)
		return ok && endpointStats(st, victimAddr).PinnedFrames >= 2
	}, "frames to pin to the frozen victim")

	// Phase 3: SIGKILL the victim (SIGKILL lands on stopped processes
	// too). The farm's connection resets, it fails over, and the rest
	// of the flood drains into the survivor — while the victim-pinned
	// frames hold the spool's mark floor down below everything the
	// survivor acks.
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.cmd.Wait()
	waitUntil(t, 30*time.Second, func() bool {
		st, ok := farmRelayStats(farmAdmin)
		return ok && st.Enqueued == totalEvents &&
			endpointStats(st, survivorAddr).EventsAcked > 0 &&
			endpointStats(st, victimAddr).PinnedFrames >= 1
	}, "flood to finish with frames pinned to both collectors")

	// Phase 4: SIGKILL the farm. The spool WAL now holds frames pinned
	// to two collectors and a mark floor stuck under the victim's.
	if err := flood.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	flood.Wait()

	// Phase 5: restart the victim over its own store (its WAL replay
	// restores the farm's dedup mark), then restart the farm over the
	// same spool. The finish helper exits zero only after the spool
	// fully drains — every frame retransmitted and acked.
	victim.start(t)
	finish := startFarmHelper(t, "finish", spoolDir, relayAddrs, "", totalEvents, frameEvents)
	if err := finish.Wait(); err != nil {
		t.Fatalf("farm restart helper failed: %v\n%s", err, finish.Stdout.(*bytes.Buffer).String())
	}

	// The verdict: every collector's merged /query must hold each of
	// the 900 events exactly once. The flood gave every event its own
	// source address, so any frame replayed past its journaled owner
	// is ingested twice and pushes Events past UniqueIPs; a truncated
	// or degraded merge would flag Approx instead of lying.
	for _, adminAddr := range adminAddrs {
		adminAddr := adminAddr
		var q *obs.QueryResponse
		waitUntil(t, 15*time.Second, func() bool {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			resp, err := obs.NewClient(adminAddr, 5*time.Second).Query(ctx, obs.QueryRequest{Limit: totalEvents + 50})
			if err != nil || resp.Tier == nil || resp.Tier.Responded != resp.Tier.Collectors {
				return false
			}
			q = resp
			return true
		}, "full tier to answer the merged query at "+adminAddr)
		if q.Tier.Approx {
			t.Fatalf("merged query at %s is approximate: %+v", adminAddr, q.Tier)
		}
		if q.Events != totalEvents || q.UniqueIPs != totalEvents || q.Total != totalEvents {
			t.Fatalf("merged capture at %s: events=%d unique=%d total=%d, want exactly %d each (a double-ingested frame inflates events past unique sources)",
				adminAddr, q.Events, q.UniqueIPs, q.Total, totalEvents)
		}
	}

	// And the split proves the restart really exercised two owners:
	// each collector ingested part of the stream, summing exactly.
	var sum int64
	for _, relayAddr := range relayAddrs {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, err := obs.NewClient(adminByRelay[relayAddr], 5*time.Second).Query(ctx, obs.QueryRequest{Scope: obs.ScopeLocal})
		cancel()
		if err != nil {
			t.Fatalf("local query %s: %v", relayAddr, err)
		}
		if resp.Events == 0 {
			t.Fatalf("collector %s ingested nothing — the drill never split the stream across two owners", relayAddr)
		}
		sum += resp.Events
	}
	if sum != totalEvents {
		t.Fatalf("per-collector events sum to %d, want %d: an event was ingested on more than one collector", sum, totalEvents)
	}
}
