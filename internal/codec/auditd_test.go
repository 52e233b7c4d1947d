package codec

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"saql/internal/event"
)

func TestAuditdExecveGroup(t *testing.T) {
	lines := `
type=SYSCALL msg=audit(1582794000.123:101): arch=c000003e syscall=59 success=yes exit=0 a0=55f ppid=4119 pid=4120 auid=1000 uid=1000 gid=1000 comm="mysqldump" exe="/usr/bin/mysqldump" key="exec"
type=EXECVE msg=audit(1582794000.123:101): argc=3 a0="mysqldump" a1="--all-databases" a2=2D2D726573756C742D66696C653D64756D702E73716C
type=CWD msg=audit(1582794000.123:101): cwd="/var/tmp"
type=PATH msg=audit(1582794000.123:101): item=0 name="/usr/bin/mysqldump" inode=1234 nametype=NORMAL
type=PATH msg=audit(1582794000.123:101): item=1 name="/lib64/ld-linux-x86-64.so.2" inode=99 nametype=NORMAL
type=PROCTITLE msg=audit(1582794000.123:101): proctitle=6D7973716C64756D70
type=EOE msg=audit(1582794000.123:101):`
	evs, errs := decodeAll(t, "auditd", Options{DefaultAgent: "db-1"}, lines)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(evs) != 1 {
		t.Fatalf("decoded %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Op != event.OpExecute {
		t.Errorf("op = %v, want execute", ev.Op)
	}
	if ev.Subject.ExeName != "mysqldump" || ev.Subject.PID != 4120 {
		t.Errorf("subject = %+v", ev.Subject)
	}
	// EXECVE argv joins, with the hex-encoded argument decoded.
	if ev.Subject.CmdLine != "mysqldump --all-databases --result-file=dump.sql" {
		t.Errorf("cmdline = %q", ev.Subject.CmdLine)
	}
	if ev.Object.Type != event.EntityFile || ev.Object.Path != "/usr/bin/mysqldump" {
		t.Errorf("object = %+v (want PATH item 0)", ev.Object)
	}
	if ev.AgentID != "db-1" {
		t.Errorf("agent = %q", ev.AgentID)
	}
	want := time.Unix(1582794000, 123000000).UTC()
	if !ev.Time.Equal(want) {
		t.Errorf("time = %v, want %v", ev.Time, want)
	}
}

func TestAuditdInterleavedGroups(t *testing.T) {
	// Two groups interleaved record by record, as concurrent CPUs emit them.
	// Group 102: openat CREATE (write); group 103: connect with hex saddr
	// (AF_INET 172.16.0.129:443) and a node= prefix.
	lines := `
type=SYSCALL msg=audit(1582794010.000:102): arch=c000003e syscall=257 success=yes exit=3 ppid=1 pid=500 uid=0 comm="mysqld" exe="/usr/sbin/mysqld"
node=db-1 type=SYSCALL msg=audit(1582794011.000:103): arch=c000003e syscall=42 success=yes exit=0 ppid=1 pid=600 uid=0 comm="curl" exe="/usr/bin/curl"
type=CWD msg=audit(1582794010.000:102): cwd="/var/tmp"
node=db-1 type=SOCKADDR msg=audit(1582794011.000:103): saddr=020001BBAC1000810000000000000000
type=PATH msg=audit(1582794010.000:102): item=0 name="/var/tmp" nametype=PARENT
type=PATH msg=audit(1582794010.000:102): item=1 name="dump.sql" nametype=CREATE
node=db-1 type=EOE msg=audit(1582794011.000:103):
type=EOE msg=audit(1582794010.000:102):`
	evs, errs := decodeAll(t, "auditd", Options{DefaultAgent: "fallback"}, lines)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(evs) != 2 {
		t.Fatalf("decoded %d events, want 2", len(evs))
	}
	// Group 103's EOE arrives first, so it completes first.
	conn := evs[0]
	if conn.Op != event.OpConnect || conn.Subject.ExeName != "curl" {
		t.Errorf("connect event = %s", conn)
	}
	if conn.Object.DstIP != "172.16.0.129" || conn.Object.DstPort != 443 {
		t.Errorf("sockaddr = %+v", conn.Object)
	}
	if conn.AgentID != "db-1" {
		t.Errorf("node= agent = %q", conn.AgentID)
	}
	wr := evs[1]
	if wr.Op != event.OpWrite {
		t.Errorf("openat CREATE op = %v, want write", wr.Op)
	}
	// Relative PATH name resolves against the CWD record.
	if wr.Object.Path != "/var/tmp/dump.sql" {
		t.Errorf("path = %q", wr.Object.Path)
	}
	if wr.AgentID != "fallback" {
		t.Errorf("fallback agent = %q", wr.AgentID)
	}
}

func TestAuditdInterpretedLog(t *testing.T) {
	// `ausearch -i` renders syscall names symbolically, saddr braced, and
	// the audit stamp as a date.
	lines := `
type=SYSCALL msg=audit(02/27/2020 09:00:20.500:200): arch=x86_64 syscall=connect success=yes exit=0 ppid=1 pid=700 uid=root comm="nc" exe="/usr/bin/nc"
type=SOCKADDR msg=audit(02/27/2020 09:00:20.500:200): saddr={ fam=inet laddr=10.9.8.7 lport=22 }
type=EOE msg=audit(02/27/2020 09:00:20.500:200):`
	evs, errs := decodeAll(t, "auditd", Options{}, lines)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(evs) != 1 {
		t.Fatalf("decoded %d events, want 1", len(evs))
	}
	want := time.Date(2020, 2, 27, 9, 0, 20, 500000000, time.UTC)
	if !evs[0].Time.Equal(want) {
		t.Errorf("interpreted stamp time = %v, want %v", evs[0].Time, want)
	}
	if evs[0].Object.DstIP != "10.9.8.7" || evs[0].Object.DstPort != 22 {
		t.Errorf("interpreted saddr = %+v", evs[0].Object)
	}
	if evs[0].Subject.User != "root" {
		t.Errorf("user = %q", evs[0].Subject.User)
	}
	if evs[0].AgentID != "auditd" {
		t.Errorf("default agent = %q", evs[0].AgentID)
	}
}

func TestAuditdProcessLifecycleAndAmounts(t *testing.T) {
	lines := `
type=SYSCALL msg=audit(1582794030.000:301): arch=c000003e syscall=56 success=yes exit=7002 ppid=1 pid=7001 uid=1000 comm="bash" exe="/usr/bin/bash"
type=EOE msg=audit(1582794030.000:301):
type=SYSCALL msg=audit(1582794031.000:302): arch=c000003e syscall=44 success=yes exit=524288 ppid=7001 pid=7002 uid=1000 comm="curl" exe="/usr/bin/curl"
type=SOCKADDR msg=audit(1582794031.000:302): saddr=020001BBAC1000810000000000000000
type=EOE msg=audit(1582794031.000:302):
type=SYSCALL msg=audit(1582794032.000:303): arch=c000003e syscall=87 success=yes exit=0 ppid=7001 pid=7002 uid=1000 comm="rm" exe="/usr/bin/rm"
type=CWD msg=audit(1582794032.000:303): cwd="/var/tmp"
type=PATH msg=audit(1582794032.000:303): item=0 name="/var/tmp" nametype=PARENT
type=PATH msg=audit(1582794032.000:303): item=1 name="dump.sql" nametype=DELETE
type=EOE msg=audit(1582794032.000:303):
type=SYSCALL msg=audit(1582794033.000:304): arch=c000003e syscall=231 success=yes exit=0 ppid=7001 pid=7002 uid=1000 comm="curl" exe="/usr/bin/curl"
type=EOE msg=audit(1582794033.000:304):`
	evs, errs := decodeAll(t, "auditd", Options{}, lines)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(evs) != 4 {
		t.Fatalf("decoded %d events, want 4", len(evs))
	}
	// clone: child pid comes from exit=.
	if evs[0].Op != event.OpStart || evs[0].Object.PID != 7002 || evs[0].Object.ExeName != "bash" {
		t.Errorf("clone → %s", evs[0])
	}
	// sendto: network write with the byte count from exit=.
	if evs[1].Op != event.OpWrite || evs[1].Amount != 524288 || evs[1].Object.DstIP != "172.16.0.129" {
		t.Errorf("sendto → %s", evs[1])
	}
	// unlink: delete of the DELETE-nametype path.
	if evs[2].Op != event.OpDelete || evs[2].Object.Path != "/var/tmp/dump.sql" {
		t.Errorf("unlink → %s", evs[2])
	}
	// exit_group: process end.
	if evs[3].Op != event.OpEnd || evs[3].Object.PID != 7002 {
		t.Errorf("exit_group → %s", evs[3])
	}
}

func TestAuditdSkipsAndErrors(t *testing.T) {
	dec, _ := New("auditd", Options{})

	// Failed syscalls, unmapped syscalls, and non-event record types decode
	// to nothing without error.
	silent := `
type=SYSCALL msg=audit(1582794040.000:400): arch=c000003e syscall=59 success=no exit=-13 pid=1 uid=0 comm="sh" exe="/bin/sh"
type=EOE msg=audit(1582794040.000:400):
type=SYSCALL msg=audit(1582794041.000:401): arch=c000003e syscall=39 success=yes exit=55 pid=1 uid=0 comm="sh" exe="/bin/sh"
type=EOE msg=audit(1582794041.000:401):
type=LOGIN msg=audit(1582794042.000:402): pid=1 uid=0 old-auid=4294967295 auid=1000
type=EOE msg=audit(1582794042.000:402):
type=EOE msg=audit(1582794042.000:402):`
	for _, line := range strings.Split(strings.TrimSpace(silent), "\n") {
		evs, err := dec.Decode([]byte(line))
		if err != nil || len(evs) != 0 {
			t.Errorf("Decode(%q) = %d events, err %v; want silent skip", line, len(evs), err)
		}
	}

	// Malformed lines are errors and leave the decoder usable.
	for _, line := range []string{
		`not an audit line`,
		`type=SYSCALL no-msg-field`,
		`type=SYSCALL msg=audit(couldbeanything): pid=1`,
		`type=SYSCALL msg=audit(1582794050.000:500`,
		`node=db-1`,
		// Stamps no calendar holds (ParseFloat reads all of these): they
		// used to become implementation-defined garbage instants.
		`type=SYSCALL msg=audit(1e300:501): syscall=59 success=yes exit=0 pid=1 comm="a" exe="/a"`,
		`type=SYSCALL msg=audit(9e18:502): syscall=59 success=yes exit=0 pid=1 comm="a" exe="/a"`,
		`type=SYSCALL msg=audit(NaN:503): syscall=59 success=yes exit=0 pid=1 comm="a" exe="/a"`,
		`type=SYSCALL msg=audit(-Inf:504): syscall=59 success=yes exit=0 pid=1 comm="a" exe="/a"`,
	} {
		if _, err := dec.Decode([]byte(line)); err == nil {
			t.Errorf("Decode(%q) should fail", line)
		}
	}

	// A group whose terminator is lost errors at completion time: an execve
	// with no PATH record cannot name its object.
	if _, err := dec.Decode([]byte(`type=SYSCALL msg=audit(1582794051.000:501): arch=c000003e syscall=59 success=yes exit=0 pid=9 uid=0 comm="sh" exe="/bin/sh"`)); err != nil {
		t.Fatalf("buffering record: %v", err)
	}
	if _, err := dec.Decode([]byte(`type=EOE msg=audit(1582794051.000:501):`)); err == nil {
		t.Error("truncated execve group should error at completion")
	}
}

func TestAuditdTruncatedGroupEviction(t *testing.T) {
	dec, _ := New("auditd", Options{})
	// A SYSCALL group that never terminates (its EOE was lost in capture).
	if _, err := dec.Decode([]byte(`type=SYSCALL msg=audit(1582794060.000:600): arch=c000003e syscall=42 success=yes exit=0 pid=5 uid=0 comm="nc" exe="/usr/bin/nc"`)); err != nil {
		t.Fatal(err)
	}
	// Push maxPendingGroups complete-but-unterminated groups behind it; the
	// orphan is evicted and surfaces as a truncated-group error (connect
	// without its SOCKADDR record).
	var sawEviction bool
	var evs []*event.Event
	for i := 0; i <= maxPendingGroups; i++ {
		line := fmt.Sprintf(`type=SYSCALL msg=audit(1582794061.000:%d): arch=c000003e syscall=231 success=yes exit=0 pid=5 uid=0 comm="x" exe="/bin/x"`, 601+i)
		out, err := dec.Decode([]byte(line))
		evs = append(evs, out...)
		if err != nil {
			if !strings.Contains(err.Error(), "truncated record group") {
				t.Fatalf("unexpected error: %v", err)
			}
			sawEviction = true
		}
	}
	if !sawEviction {
		t.Fatal("orphaned group was never evicted")
	}
	// The exit_group groups themselves all still decode (whether emitted by
	// eviction or by the final flush).
	evs = append(evs, dec.Flush()...)
	if len(evs) != maxPendingGroups+1 {
		t.Fatalf("decoded %d events, want %d", len(evs), maxPendingGroups+1)
	}
	for _, ev := range evs {
		if ev.Op != event.OpEnd {
			t.Fatalf("decoded event %s, want end", ev)
		}
	}
}

func TestAuditdMultiHostStampCollision(t *testing.T) {
	// Audit serials are per-host: two hosts can emit the same stamp. Their
	// record groups must not merge.
	lines := `
node=host-a type=SYSCALL msg=audit(1582794080.000:50): arch=c000003e syscall=42 success=yes exit=0 pid=10 uid=0 comm="curl" exe="/usr/bin/curl"
node=host-b type=SYSCALL msg=audit(1582794080.000:50): arch=c000003e syscall=231 success=yes exit=0 pid=20 uid=0 comm="sleep" exe="/usr/bin/sleep"
node=host-a type=SOCKADDR msg=audit(1582794080.000:50): saddr=020001BBAC1000810000000000000000
node=host-b type=EOE msg=audit(1582794080.000:50):
node=host-a type=EOE msg=audit(1582794080.000:50):`
	evs, errs := decodeAll(t, "auditd", Options{}, lines)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(evs) != 2 {
		t.Fatalf("decoded %d events, want 2", len(evs))
	}
	if evs[0].AgentID != "host-b" || evs[0].Op != event.OpEnd || evs[0].Subject.PID != 20 {
		t.Errorf("host-b event = %s (agent %s)", evs[0], evs[0].AgentID)
	}
	if evs[1].AgentID != "host-a" || evs[1].Op != event.OpConnect || evs[1].Object.DstIP != "172.16.0.129" {
		t.Errorf("host-a event = %s (agent %s)", evs[1], evs[1].AgentID)
	}
}

func TestAuditdHexLookalikesSurvive(t *testing.T) {
	// Interpreted logs print unquoted values; names that happen to parse as
	// hex (dd, beef) must not be decoded into garbage bytes. Genuinely
	// hex-encoded values (printable text with a space) still decode.
	lines := `
type=SYSCALL msg=audit(1582794090.000:60): arch=x86_64 syscall=execve success=yes exit=0 pid=30 uid=root comm=dd exe=/usr/bin/dd
type=EXECVE msg=audit(1582794090.000:60): argc=2 a0=dd a1=69663D2F6465762F736461206F663D78
type=PATH msg=audit(1582794090.000:60): item=0 name=/usr/bin/dd nametype=NORMAL
type=EOE msg=audit(1582794090.000:60):`
	evs, errs := decodeAll(t, "auditd", Options{}, lines)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(evs) != 1 {
		t.Fatalf("decoded %d events, want 1", len(evs))
	}
	if evs[0].Subject.ExeName != "dd" {
		t.Errorf("exe name = %q, want dd (hex decode must not fire on printable lookalikes)", evs[0].Subject.ExeName)
	}
	// a1 is a genuine hex encoding (the space forces it): it must decode;
	// a0's "dd" must stay verbatim.
	if evs[0].Subject.CmdLine != "dd if=/dev/sda of=x" {
		t.Errorf("cmdline = %q, want %q", evs[0].Subject.CmdLine, "dd if=/dev/sda of=x")
	}
}

func TestAuditdOpenForWriteFlags(t *testing.T) {
	// Overwriting an existing file: openat with O_WRONLY|O_TRUNC (0x241
	// includes O_CREAT; 0x201 does not) leaves PATH nametype=NORMAL, so the
	// access mode must drive the write classification.
	lines := `
type=SYSCALL msg=audit(1582794095.000:70): arch=c000003e syscall=257 success=yes exit=3 a0=ffffff9c a1=7ffd a2=201 a3=1b6 pid=40 uid=0 comm="mysqldump" exe="/usr/bin/mysqldump"
type=PATH msg=audit(1582794095.000:70): item=0 name="/var/tmp/dump.sql" nametype=NORMAL
type=EOE msg=audit(1582794095.000:70):
type=SYSCALL msg=audit(1582794096.000:71): arch=c000003e syscall=2 success=yes exit=3 a0=7ffd a1=0 a2=0 pid=41 uid=0 comm="cat" exe="/usr/bin/cat"
type=PATH msg=audit(1582794096.000:71): item=0 name="/var/tmp/dump.sql" nametype=NORMAL
type=EOE msg=audit(1582794096.000:71):
type=SYSCALL msg=audit(1582794097.000:72): arch=c000003e syscall=2 success=yes exit=3 a0=7ffd a1=2 a2=0 pid=42 uid=0 comm="ed" exe="/usr/bin/ed"
type=PATH msg=audit(1582794097.000:72): item=0 name="/var/tmp/dump.sql" nametype=NORMAL
type=EOE msg=audit(1582794097.000:72):`
	evs, errs := decodeAll(t, "auditd", Options{}, lines)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(evs) != 3 {
		t.Fatalf("decoded %d events, want 3", len(evs))
	}
	if evs[0].Op != event.OpWrite {
		t.Errorf("openat O_WRONLY|O_TRUNC of existing file → %v, want write", evs[0].Op)
	}
	if evs[1].Op != event.OpRead {
		t.Errorf("open O_RDONLY → %v, want read", evs[1].Op)
	}
	if evs[2].Op != event.OpWrite {
		t.Errorf("open O_RDWR → %v, want write", evs[2].Op)
	}
}

func TestAuditdSockaddrIPv6(t *testing.T) {
	// AF_INET6 (0x0a), port 443, ::1.
	lines := `
type=SYSCALL msg=audit(1582794070.000:700): arch=c000003e syscall=42 success=yes exit=0 pid=5 uid=0 comm="curl" exe="/usr/bin/curl"
type=SOCKADDR msg=audit(1582794070.000:700): saddr=0A0001BB00000000000000000000000000000000000000010000000000000000
type=EOE msg=audit(1582794070.000:700):`
	evs, errs := decodeAll(t, "auditd", Options{}, lines)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(evs) != 1 {
		t.Fatalf("decoded %d events, want 1", len(evs))
	}
	if evs[0].Object.DstIP != "0:0:0:0:0:0:0:1" || evs[0].Object.DstPort != 443 {
		t.Errorf("ipv6 saddr = %+v", evs[0].Object)
	}
}
