package simnet_test

// The collector crash drill: a real dbcollect process is SIGKILLed in
// the middle of a durable flood, restarted over the same -store
// directory, and the final snapshot must account for every event
// exactly once — the end-to-end proof that the WAL journal on the
// collector side and the WAL spool on the farm side compose into
// exactly-once capture across an unclean restart.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/relay"
	"decoydb/internal/wal"
)

func crashEvents(base, n int) []core.Event {
	evs := make([]core.Event, n)
	for i := range evs {
		k := base + i
		evs[i] = core.Event{
			Time: time.Unix(1700000000+int64(k), 0).UTC(),
			Src:  netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, byte(k >> 8), byte(k)}), uint16(40000+k%1000)),
			Honeypot: core.Info{
				DBMS: core.MySQL, Level: core.Low, Port: 3306,
				Config: core.ConfigDefault, Group: core.GroupSingle, VM: "crash",
			},
			Kind: core.EventLogin,
			User: fmt.Sprintf("user%d", k),
			Pass: fmt.Sprintf("pass%d", k),
		}
	}
	return evs
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// buildCollector builds cmd/dbcollect into a temporary directory and
// returns the binary's path.
func buildCollector(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dbcollect")
	build := exec.Command("go", "build", "-o", bin, "decoydb/cmd/dbcollect")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build dbcollect: %v", err)
	}
	return bin
}

// TestCollectorRejectsDaysOutsideWindow: the store window holds 1 to
// evstore.MaxDays days, and dbcollect says so and exits 1 for any other
// -days, instead of panicking in the store or serving a zero-day window.
func TestCollectorRejectsDaysOutsideWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real dbcollect binary; skipped with -short")
	}
	bin := buildCollector(t)
	for _, days := range []int{0, -1, evstore.MaxDays + 1} {
		arg := strconv.Itoa(days)
		out, err := exec.Command(bin, "-token", "tok", "-listen", "127.0.0.1:0", "-days", arg).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-days %s: %v, want exit status 1\n%s", arg, err, out)
		}
		if want := fmt.Sprintf("-days %s: the store window holds 1 to %d days", arg, evstore.MaxDays); !bytes.Contains(out, []byte(want)) || bytes.Contains(out, []byte("goroutine")) {
			t.Fatalf("-days %s printed %q, want only %q", arg, out, want)
		}
	}
}

// startCollectorProc launches the dbcollect binary and returns the
// process plus the buffer its stdout accumulates into.
func startCollectorProc(t *testing.T, bin, addr, storeDir string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command(bin, "-token", "crashtok", "-listen", addr, "-store", storeDir, "-statsevery", "0")
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start dbcollect: %v", err)
	}
	// Readiness: the listener accepts before HELLO parsing, so a bare
	// dial proves the port is live.
	waitUntil(t, 10*time.Second, func() bool {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return false
		}
		c.Close()
		return true
	}, "dbcollect to listen on "+addr)
	return cmd, &out
}

func TestCollectorCrashRecoveryExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs a real dbcollect process; skipped with -short")
	}
	if runtime.GOOS == "windows" {
		t.Skip("needs SIGKILL/SIGTERM semantics")
	}

	tmp := t.TempDir()
	bin := buildCollector(t)

	// Reserve a port, then free it for the collector to bind: both
	// collector processes must use the SAME address or the forwarder's
	// reconnect loop would never find the restarted one.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	storeDir := filepath.Join(tmp, "store")
	proc1, _ := startCollectorProc(t, bin, addr, storeDir)

	// The farm side: a blocking (lossless) forwarder with a durable
	// spool, exactly what `decoydb -store -forward` runs.
	spool, err := wal.Open(wal.Options{Dir: filepath.Join(tmp, "spool")})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := relay.NewForwardSink(relay.ForwardOptions{
		Addrs: []string{addr}, Token: "crashtok", Farm: "crashfarm",
		Block: true, SpoolWAL: spool, FrameEvents: 100,
		MinBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: flood until the collector has acknowledged at least one
	// frame, so the kill lands mid-conversation, not before it.
	total := 0
	send := func(n int) {
		t.Helper()
		if err := fwd.RecordBatch(crashEvents(total, n)); err != nil {
			t.Fatal(err)
		}
		total += n
	}
	for i := 0; i < 20; i++ {
		send(100)
	}
	waitUntil(t, 10*time.Second, func() bool { return spool.Mark() > 0 }, "first collector ack")

	// SIGKILL: no dump, no flush, no goodbye. Anything the collector
	// journaled survives; anything it did not, the farm still holds.
	if err := proc1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	proc1.Wait()

	// Phase 2: the flood continues into the outage; frames pile up in
	// the durable spool while the forwarder retries.
	for i := 0; i < 10; i++ {
		send(100)
	}

	// Phase 3: restart over the same -store. Replay rebuilds the
	// aggregates and the crashfarm dedup mark, so the forwarder's
	// retransmission of acked-but-unmarked frames must not double count.
	proc2, out := startCollectorProc(t, bin, addr, storeDir)
	for i := 0; i < 10; i++ {
		send(100)
	}
	fwd.Flush()
	waitUntil(t, 30*time.Second, func() bool {
		return fwd.Stats().SpoolFrames == 0 && spool.Mark() == spool.LastSeq()
	}, "spool to drain into restarted collector")
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := spool.Close(); err != nil {
		t.Fatal(err)
	}

	// SIGTERM ends the session with the snapshot dump (the same path a
	// deliberate shutdown takes).
	if err := proc2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := proc2.Wait(); err != nil {
		t.Fatalf("dbcollect exit after SIGTERM: %v\n%s", err, out.String())
	}

	m := regexp.MustCompile(`events ingested\s+(\d+)`).FindSubmatch(out.Bytes())
	if m == nil {
		t.Fatalf("no 'events ingested' row in dump:\n%s", out.String())
	}
	got, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("collector snapshot holds %d events, want exactly %d (sent once each across the crash)", got, total)
	}
}
