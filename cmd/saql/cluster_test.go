package main

import (
	"fmt"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"saql"
	"saql/internal/dist"
)

// waitForOutput polls a syncWriter until substr shows up.
func waitForOutput(t *testing.T, out *syncWriter, substr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), substr) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %q in output:\n%s", substr, out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunStoreSIGTERMGraceful pins the batch-mode shutdown path: SIGTERM
// during a paced store replay stops the feed, but the run still drains what
// it ingested, flushes open windows, writes the final checkpoint, and
// prints the summary — a graceful exit, not a kill.
func TestRunStoreSIGTERMGraceful(t *testing.T) {
	storeDir := t.TempDir()
	store, err := saql.OpenStore(storeDir, saql.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)
	var evs []*saql.Event
	for i := 0; i < 600; i++ {
		evs = append(evs, &saql.Event{
			// One event per second: at -speed 1 this replay runs for ten
			// minutes, so the test's SIGTERM always lands mid-stream.
			Time:    base.Add(time.Duration(i) * time.Second),
			AgentID: "db-1",
			Subject: saql.Process("sqlservr.exe", 2001),
			Op:      saql.OpWrite,
			Object:  saql.NetConn("10.0.0.2", 1433, "10.1.0.3", 443),
			Amount:  2000000, // every event trips big-write
		})
	}
	if err := store.AppendAll(evs); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	ckptDir := t.TempDir()
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-store", storeDir, "-speed", "1", "-quiet",
			"-checkpoint-dir", ckptDir,
			"-e", plainRule,
		}, out)
	}()
	waitForOutput(t, out, "concurrent runtime:")
	// Let at least one event through so the drain has real work.
	time.Sleep(300 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("run did not exit after SIGTERM:\n%s", out.String())
	}
	got := out.String()
	for _, want := range []string{"interrupted: stopping replay", "checkpoint written:", "--- summary ---"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in output:\n%s", want, got)
		}
	}

	// The checkpoint is usable: a restore run picks up where SIGTERM left
	// off instead of starting cold.
	var out2 syncWriter
	err = run([]string{
		"-store", storeDir, "-speed", "0", "-quiet", "-to", base.Add(time.Second).Format(time.RFC3339),
		"-checkpoint-dir", ckptDir,
		"-e", plainRule,
	}, &out2)
	if err != nil {
		t.Fatalf("restore run: %v\noutput:\n%s", err, out2.String())
	}
	if !strings.Contains(out2.String(), "restored 1 queries") {
		t.Errorf("second run did not restore:\n%s", out2.String())
	}
}

// startTestWorker runs an in-test saql-worker equivalent: a TCP listener
// whose accepted connections are served by dist workers over dir.
func startTestWorker(t *testing.T, dir string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP listener available: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			w := dist.NewWorker(dist.WorkerConfig{Dir: dir, Shards: 1})
			_ = w.Serve(conn)
		}
	}()
	return ln.Addr().String()
}

// TestRunClusterSimulate drives cmd/saql's coordinator mode end to end over
// real sockets: two workers, the simulated enterprise stream fanned out,
// alerts streamed back, clean cluster shutdown, summary printed.
func TestRunClusterSimulate(t *testing.T) {
	addr1 := startTestWorker(t, t.TempDir())
	addr2 := startTestWorker(t, t.TempDir())

	out := &syncWriter{}
	err := run([]string{
		"-simulate", "-duration", "1m", "-quiet",
		"-cluster", addr1 + "," + addr2,
		"-e", plainRule,
	}, out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		fmt.Sprintf("worker %-24s", addr1),
		fmt.Sprintf("worker %-24s", addr2),
		"registered 1 queries on 2 workers",
		"--- summary ---",
		"alerts raised",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in output:\n%s", want, got)
		}
	}
}

// TestRunClusterInput: a log source drives the cluster like any other
// feed — the sample's multievent rule fires once through two workers.
func TestRunClusterInput(t *testing.T) {
	addr1 := startTestWorker(t, t.TempDir())
	addr2 := startTestWorker(t, t.TempDir())

	out := &syncWriter{}
	err := run([]string{
		"-cluster", addr1 + "," + addr2,
		"-input", samplePath, "-format", "auditd", "-agent", "db-1",
		"-e", sampleRule,
	}, out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"ALERT [rule] query=inline-1", "alerts raised    : 1", "to 2 workers"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in output:\n%s", want, got)
		}
	}
}
