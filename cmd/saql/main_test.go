package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"saql"
	"saql/internal/admin"
)

const samplePath = "../../examples/auditd-replay/sample.log"

// The acceptance path of the ingestion layer: `saql -input sample.log
// -format auditd -q <query>` must produce alerts.
func TestRunInputAuditdSample(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-input", samplePath,
		"-format", "auditd",
		"-agent", "db-1",
		"-e", sampleRule,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "ALERT [rule] query=inline-1") {
		t.Errorf("no alert in output:\n%s", got)
	}
	if !strings.Contains(got, "alerts raised    : 1") {
		t.Errorf("summary missing alert count:\n%s", got)
	}
	// The deliberately malformed line in the sample surfaces in the
	// per-source accounting.
	if !strings.Contains(got, "1 undecodable") {
		t.Errorf("summary missing decode-error count:\n%s", got)
	}
}

// sampleRule is the multievent exfiltration rule the auditd sample trips
// exactly once.
const sampleRule = `
agentid = "db-1"
proc p1["%mysqldump"] write file f1["%dump.sql"] as evt1
proc p2["%curl"] read file f1 as evt2
proc p2 connect ip i1[dstip="172.16.0.129"] as evt3
with evt1 -> evt2 -> evt3
return distinct p1, f1, p2, i1`

// Every feed reaches every destination: the log source that used to need
// the concurrent runtime also drives the serial reference path.
func TestRunInputSerialPath(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-shards", "0", "-input", samplePath, "-format", "auditd", "-agent", "db-1", "-e", sampleRule}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "ALERT [rule] query=inline-1") || !strings.Contains(got, "alerts raised    : 1") {
		t.Errorf("serial path did not raise the sample's alert:\n%s", got)
	}
	if strings.Contains(got, "concurrent runtime:") {
		t.Errorf("-shards 0 started the runtime:\n%s", got)
	}
}

// feedEvents is a small stream every feed can carry: 40 big writes, four
// per second of stream time, as events and as the NDJSON lines that decode
// to them.
func feedEvents(t *testing.T) (evs []*saql.Event, ndjson string) {
	t.Helper()
	base := time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		at := base.Add(time.Duration(i) * 250 * time.Millisecond)
		evs = append(evs, &saql.Event{
			Time: at, AgentID: "db-1",
			Subject: saql.Process("sqlservr.exe", 2001),
			Op:      saql.OpWrite,
			Object:  saql.NetConn("10.0.0.2", 1433, "10.1.0.3", 443),
			Amount:  2000000, // every event trips plainRule
		})
		fmt.Fprintf(&sb, `{"ts":%q,"agent":"db-1","subject":{"type":"proc","exe":"sqlservr.exe","pid":2001},"op":"write","object":{"type":"ip","src_ip":"10.0.0.2","src_port":1433,"dst_ip":"10.1.0.3","dst_port":443},"amount":2000000}`+"\n",
			at.Format(time.RFC3339Nano))
	}
	return evs, sb.String()
}

// writeStore persists evs as a replayable store.
func writeStore(t *testing.T, evs []*saql.Event) string {
	t.Helper()
	dir := t.TempDir()
	store, err := saql.OpenStore(dir, saql.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AppendAll(evs); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// A store replay is batched by the source like any other feed: it used to
// enqueue one ingest-queue submission per event.
func TestRunStoreBatches(t *testing.T) {
	evs, _ := feedEvents(t)
	var out strings.Builder
	if err := run([]string{"-store", writeStore(t, evs), "-batch", "8", "-quiet", "-e", plainRule}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	var events, batches int
	for _, line := range strings.Split(out.String(), "\n") {
		if _, err := fmt.Sscanf(line, "events processed : %d in %d batches", &events, &batches); err == nil {
			break
		}
	}
	// 40 ÷ 8, plus at most a partial batch or two cut by the flush timer.
	if events != 40 || batches < 5 || batches > 7 {
		t.Errorf("replayed %d events in %d batches, want 40 in ≈5:\n%s", events, batches, out.String())
	}
	if !strings.Contains(out.String(), "alerts raised    : 40") {
		t.Errorf("replay lost alerts:\n%s", out.String())
	}
}

// -tenant meters whatever feed the run has, not only -input: under an
// ingest-rate quota of one event per second of stream time, the same 40
// events (four per second) lose 30 to the throttle as a log file and as a
// store replay, and the simulation loses exactly its over-rate events.
func TestRunTenantThrottlesEveryFeed(t *testing.T) {
	// The quota reaches the run the way an operator's does: it is part of
	// the durable directory's checkpoint.
	quotaDir := func(rate int64) string {
		dir := t.TempDir()
		eng, _, err := saql.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetTenantQuotas("acme", saql.TenantQuotas{IngestRate: rate})
		if _, err := eng.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	evs, ndjson := feedEvents(t)
	logf := filepath.Join(t.TempDir(), "events.ndjson")
	if err := os.WriteFile(logf, []byte(ndjson), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, feed := range [][]string{{"-input", logf}, {"-store", writeStore(t, evs)}} {
		var out strings.Builder
		args := append(feed, "-tenant", "acme", "-checkpoint-dir", quotaDir(1), "-quiet", "-e", plainRule)
		if err := run(args, &out); err != nil {
			t.Fatalf("%s: %v\noutput:\n%s", feed[0], err, out.String())
		}
		for _, want := range []string{"events throttled : 30 (tenant acme", "alerts raised    : 10"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: missing %q:\n%s", feed[0], want, out.String())
			}
		}
	}

	// The simulation: what a rate of 5/s must drop, counted per second of
	// stream time from the same generator.
	const rate = 5
	sim, err := simulationEvents(&saql.AttackScenario{
		Workstation: "ws-victim", MailServer: "mail-1", DBServer: "db-1", AttackerIP: "172.16.0.129",
	}, time.Minute, 42)
	if err != nil {
		t.Fatal(err)
	}
	perSecond := map[int64]int{}
	for _, ev := range sim {
		perSecond[ev.Time.Unix()]++
	}
	over := 0
	for _, n := range perSecond {
		over += max(0, n-rate)
	}
	if over == 0 {
		t.Fatal("simulation never exceeds the rate; the test needs a tighter quota")
	}
	var out strings.Builder
	err = run([]string{"-simulate", "-duration", "1m", "-seed", "42", "-tenant", "acme",
		"-checkpoint-dir", quotaDir(rate), "-quiet", "-e", plainRule}, &out)
	if err != nil {
		t.Fatalf("-simulate: %v\noutput:\n%s", err, out.String())
	}
	if want := fmt.Sprintf("events throttled : %d (tenant acme", over); !strings.Contains(out.String(), want) {
		t.Errorf("-simulate: missing %q:\n%s", want, out.String())
	}

	// A quota needs a started local engine to enforce it.
	if err := run([]string{"-simulate", "-shards", "0", "-tenant", "acme", "-e", plainRule}, &out); err == nil || !strings.Contains(err.Error(), "-tenant") {
		t.Errorf("-tenant with -shards 0: err = %v, want a refusal", err)
	}
}

func TestRunInputUnknownFormat(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-input", samplePath, "-format", "syslog", "-e", "proc p start proc q return p, q"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("err = %v, want unknown-format error", err)
	}
}

// The README's simulation command stays runnable.
func TestRunSimulateDemoQueries(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-simulate", "-duration", "2m", "-demo-queries", "-quiet"}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "registered 8 queries") {
		t.Errorf("demo queries not registered:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "concurrent runtime:") {
		t.Errorf("concurrent runtime is not the default path:\n%s", out.String())
	}
}

// writeRule drops a rule file into dir.
func writeRule(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

const plainRule = `proc p write ip i as e
alert e.amount > 1000000
return p, e.amount`

const setRules = `param limit = 500
query dir-sum {
  proc p write ip i as e #time(1 min)
  state ss { amt := sum(e.amount) } group by p
  alert ss.amt > $limit
  return p, ss.amt
}
query dir-reads {
  proc p read file f return p, f
}`

func TestLoadQueryDir(t *testing.T) {
	dir := t.TempDir()
	writeRule(t, dir, "big-write.saql", plainRule)
	writeRule(t, dir, "pack.saql", setRules)
	writeRule(t, dir, "ignored.txt", "not saql")
	set, err := loadQueryDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Files load in sorted order (deterministic pinned placement); names
	// within a file keep declaration order.
	want := []string{"big-write", "dir-sum", "dir-reads"}
	got := set.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
	if src, ok := set.Source("dir-sum"); !ok || !strings.Contains(src, "> 500") {
		t.Errorf("param not substituted: %q", src)
	}
	// A broken file fails the whole load with the file named.
	writeRule(t, dir, "broken.saql", "not a query")
	if _, err := loadQueryDir(dir); err == nil || !strings.Contains(err.Error(), "broken.saql") {
		t.Errorf("err = %v, want named broken file", err)
	}
}

// -queries registers the directory's rules through Engine.Apply and prints
// the change report.
func TestRunQueriesDir(t *testing.T) {
	dir := t.TempDir()
	writeRule(t, dir, "big-write.saql", plainRule)
	writeRule(t, dir, "pack.saql", setRules)
	var out strings.Builder
	if err := run([]string{"-queries", dir, "-simulate", "-duration", "1m", "-quiet"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "applied query set: 3 added") {
		t.Errorf("missing change report:\n%s", got)
	}
	if !strings.Contains(got, "registered 3 queries") {
		t.Errorf("missing registration summary:\n%s", got)
	}
}

// syncWriter makes the shared output buffer safe against the SIGHUP
// goroutine writing concurrently with run.
type syncWriter struct {
	mu sync.Mutex
	sb strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.String()
}

// The SIGHUP path end to end: run tails a live input, the rule directory
// changes underneath it, SIGHUP reconciles (add + hot-swap), SIGTERM ends
// the run cleanly.
func TestRunSIGHUPReApply(t *testing.T) {
	dir := t.TempDir()
	writeRule(t, dir, "big-write.saql", plainRule)
	logf := filepath.Join(t.TempDir(), "events.ndjson")
	if err := os.WriteFile(logf, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-queries", dir, "-input", logf, "-follow", "-quiet"}, out)
	}()
	waitFor := func(substr string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !strings.Contains(out.String(), substr) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %q in output:\n%s", substr, out.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("concurrent runtime:")

	// Tighten the existing rule and drop a new pack in, then reload.
	writeRule(t, dir, "big-write.saql", strings.Replace(plainRule, "1000000", "2000000", 1))
	writeRule(t, dir, "pack.saql", setRules)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitFor("reloaded queries:")
	got := out.String()
	if !strings.Contains(got, "2 added (dir-reads, dir-sum)") || !strings.Contains(got, "1 updated (big-write)") {
		t.Errorf("reload report wrong:\n%s", got)
	}

	// SIGTERM is the live-mode shutdown path: the run must flush and exit
	// cleanly.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run did not exit after SIGTERM:\n%s", out.String())
	}
}

// The admin control plane end to end: run tails a live input with
// -admin-addr, the admin DSL lists the registered queries over HTTP, an
// unconfirmed mutation is refused, a confirmed pause/resume round-trips,
// and SIGTERM still shuts the whole process down cleanly with the admin
// listener attached.
func TestRunAdminAPI(t *testing.T) {
	dir := t.TempDir()
	writeRule(t, dir, "big-write.saql", plainRule)
	writeRule(t, dir, "pack.saql", setRules)
	logf := filepath.Join(t.TempDir(), "events.ndjson")
	if err := os.WriteFile(logf, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-queries", dir, "-input", logf, "-follow", "-quiet",
			"-admin-addr", "127.0.0.1:0",
		}, out)
	}()
	waitFor := func(substr string) string {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !strings.Contains(out.String(), substr) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %q in output:\n%s", substr, out.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
		return out.String()
	}
	got := waitFor("admin API listening on ")
	_, rest, _ := strings.Cut(got, "admin API listening on ")
	addr := strings.TrimSpace(strings.SplitN(rest, "\n", 2)[0])

	resp, err := admin.Query(addr, `list(queries){id tenant paused}`, false, nil)
	if err != nil {
		t.Fatalf("list(queries): %v", err)
	}
	if len(resp.Items) != 3 {
		t.Fatalf("listed %d queries, want 3: %+v", len(resp.Items), resp.Items)
	}
	if id := resp.Items[0]["id"]; id != "big-write" {
		t.Errorf("first query = %v, want big-write (sorted)", id)
	}

	// Mutations without confirm are refused and change nothing.
	if _, err := admin.Query(addr, `pause(dir-sum)`, false, nil); err == nil ||
		!strings.Contains(err.Error(), "confirm") {
		t.Fatalf("unconfirmed pause error = %v, want confirm refusal", err)
	}
	if _, err := admin.Query(addr, `pause(dir-sum)`, true, nil); err != nil {
		t.Fatalf("confirmed pause: %v", err)
	}
	resp, err = admin.Query(addr, `get(dir-sum){id paused}`, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if paused, _ := resp.Item["paused"].(bool); !paused {
		t.Errorf("pause did not stick: %+v", resp.Item)
	}
	if _, err := admin.Query(addr, `resume(dir-sum)`, true, nil); err != nil {
		t.Fatalf("resume: %v", err)
	}
	resp, err = admin.Query(addr, `get(dir-sum){paused}`, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if paused, _ := resp.Item["paused"].(bool); paused {
		t.Errorf("resume did not stick: %+v", resp.Item)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run did not exit after SIGTERM:\n%s", out.String())
	}
}

func TestRunValidate(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-validate", "-e", "proc p read file f return p, f"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "OK") {
		t.Errorf("validate output:\n%s", out.String())
	}
}

// TestRunCheckpointDir exercises the durable flags end to end: a first run
// journals its simulated stream into -checkpoint-dir and writes a final
// checkpoint; a second run restores from it (replaying the journaled tail
// past the snapshot offset — here none, since the final checkpoint covers
// the whole stream) and keeps operating.
func TestRunCheckpointDir(t *testing.T) {
	dir := t.TempDir()
	var out1 strings.Builder
	err := run([]string{
		"-simulate", "-duration", "1m", "-quiet",
		"-checkpoint-dir", dir, "-checkpoint-every", "50ms",
		"-e", plainRule,
	}, &out1)
	if err != nil {
		t.Fatalf("run 1: %v\noutput:\n%s", err, out1.String())
	}
	if !strings.Contains(out1.String(), "checkpoint written:") {
		t.Errorf("no final checkpoint in run 1:\n%s", out1.String())
	}

	var out2 strings.Builder
	err = run([]string{
		"-simulate", "-duration", "1m", "-quiet",
		"-checkpoint-dir", dir,
		"-e", plainRule,
	}, &out2)
	if err != nil {
		t.Fatalf("run 2: %v\noutput:\n%s", err, out2.String())
	}
	got := out2.String()
	if !strings.Contains(got, "restored 1 queries from") {
		t.Errorf("run 2 did not restore:\n%s", got)
	}
	if !strings.Contains(got, "checkpoint written:") {
		t.Errorf("run 2 wrote no checkpoint:\n%s", got)
	}
	// The restored registry matches the rule set: Apply reports no changes,
	// so no "applied query set" line.
	if strings.Contains(got, "applied query set:") {
		t.Errorf("restored registry was perturbed by Apply:\n%s", got)
	}

	// The serial path supports the flag too (restore without start).
	var out3 strings.Builder
	err = run([]string{
		"-simulate", "-duration", "1m", "-quiet", "-shards", "0",
		"-checkpoint-dir", dir,
		"-e", plainRule,
	}, &out3)
	if err != nil {
		t.Fatalf("run 3 (serial): %v\noutput:\n%s", err, out3.String())
	}
	if !strings.Contains(out3.String(), "restored 1 queries from") {
		t.Errorf("serial run did not restore:\n%s", out3.String())
	}

	// A journal without a snapshot — the shape a crash before the first
	// checkpoint leaves behind — is recovered by replaying every orphaned
	// record, not by silently discarding it.
	if err := os.Remove(filepath.Join(dir, "checkpoint.ckpt")); err != nil {
		t.Fatal(err)
	}
	var out4 strings.Builder
	err = run([]string{
		"-simulate", "-duration", "1m", "-quiet",
		"-checkpoint-dir", dir,
		"-e", plainRule,
	}, &out4)
	if err != nil {
		t.Fatalf("run 4 (orphaned journal): %v\noutput:\n%s", err, out4.String())
	}
	if !strings.Contains(out4.String(), "journaled events from a run with no checkpoint") {
		t.Errorf("orphaned journal was not replayed:\n%s", out4.String())
	}
}

// --------------------------------------------------------------------------
// Golden alert corpus: the checked-in auditd sample, decoded and evaluated
// by three fixed queries (multievent rule, per-event rule, windowed
// aggregation), must produce exactly the committed alert set. This pins the
// decode→eval→alert pipeline end to end: any codec, matcher, window, or
// expression change that shifts an alert shows up as a golden diff. Run
// with SAQL_UPDATE_GOLDEN=1 to regenerate after an intentional change.
// --------------------------------------------------------------------------

const goldenPath = "testdata/expected-alerts.golden"

func goldenArgs() []string {
	return []string{
		"-input", samplePath, "-format", "auditd", "-agent", "db-1",
		"-e", `agentid = "db-1"
proc p1["%mysqldump"] write file f1["%dump.sql"] as evt1
proc p2["%curl"] read file f1 as evt2
proc p2 connect ip i1[dstip="172.16.0.129"] as evt3
with evt1 -> evt2 -> evt3
return distinct p1, f1, p2, i1`,
		"-e", `proc p start proc c as e return p.exe_name, e.id`,
		"-e", `proc p read || write file f as e #time(2 s)
state ss { n := count(e) } group by p
alert ss.n >= 1
return p, ss.n`,
	}
}

func TestGoldenAlertCorpus(t *testing.T) {
	if os.Getenv("SAQL_GOLDEN_HELPER") == "1" {
		// Helper mode, re-executed below with TZ=UTC so rendered event
		// times are zone-independent: run the pipeline and emit each alert
		// line under a grep-able prefix.
		var sb strings.Builder
		if err := run(goldenArgs(), &sb); err != nil {
			t.Fatalf("golden run: %v\noutput:\n%s", err, sb.String())
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, "ALERT ") {
				fmt.Printf("GOLDEN|%s\n", line)
			}
		}
		return
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestGoldenAlertCorpus$", "-test.count=1")
	cmd.Env = append(os.Environ(), "SAQL_GOLDEN_HELPER=1", "TZ=UTC")
	outBytes, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper run: %v\noutput:\n%s", err, outBytes)
	}
	var got []string
	for _, line := range strings.Split(string(outBytes), "\n") {
		if rest, ok := strings.CutPrefix(line, "GOLDEN|"); ok {
			got = append(got, rest)
		}
	}
	sort.Strings(got) // alert delivery order varies across shards; the set must not
	if len(got) == 0 {
		t.Fatalf("golden run produced no alerts:\n%s", outBytes)
	}
	rendered := strings.Join(got, "\n") + "\n"

	if os.Getenv("SAQL_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(rendered), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d alerts)", goldenPath, len(got))
		return
	}

	wantBytes, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with SAQL_UPDATE_GOLDEN=1): %v", err)
	}
	want := strings.Split(strings.TrimRight(string(wantBytes), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("alert count: got %d, want %d (golden)", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("golden diff at alert %d:\n  got:  %s\n  want: %s", i, got[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("full output (regenerate with SAQL_UPDATE_GOLDEN=1 if intentional):\n%s", rendered)
	}
}
