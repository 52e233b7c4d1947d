package admin

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"saql"
)

const minimalQuery = `proc p read file f return p`

func newTestServer(t *testing.T) (*saql.Engine, string) {
	t.Helper()
	eng := saql.New()
	t.Cleanup(func() { eng.Close() })
	for _, name := range []string{"acme/exfil", "globex/watch", "solo"} {
		if _, err := eng.Register(name, minimalQuery); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewServer(eng).Handler())
	t.Cleanup(srv.Close)
	return eng, strings.TrimPrefix(srv.URL, "http://")
}

func TestServerList(t *testing.T) {
	_, addr := newTestServer(t)

	resp, err := Query(addr, `list(queries){id tenant paused}`, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(resp.Items))
	}
	// Sorted by id; field selection limits keys.
	if id := resp.Items[0]["id"]; id != "acme/exfil" {
		t.Errorf("first id = %v", id)
	}
	if ten := resp.Items[0]["tenant"]; ten != "acme" {
		t.Errorf("tenant = %v", ten)
	}
	if ten := resp.Items[2]["tenant"]; ten != "default" {
		t.Errorf("unqualified query tenant = %v, want default", ten)
	}
	if _, has := resp.Items[0]["alerts"]; has {
		t.Error("unselected field present in item")
	}

	// Tenant filter.
	resp, err = Query(addr, `list(queries, tenant=acme){id}`, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 1 || resp.Items[0]["id"] != "acme/exfil" {
		t.Errorf("filtered items = %v", resp.Items)
	}

	// Pagination: limit=2 leaves a cursor; following it drains the rest.
	resp, err = Query(addr, `list(queries, limit=2){id}`, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 2 || resp.Next != "globex/watch" {
		t.Errorf("page = %v next = %q", resp.Items, resp.Next)
	}
	resp, err = Query(addr, `list(queries, limit=2, after=globex/watch){id}`, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 1 || resp.Items[0]["id"] != "solo" || resp.Next != "" {
		t.Errorf("second page = %v next = %q", resp.Items, resp.Next)
	}

	// Tenants listing covers every namespace with a query.
	resp, err = Query(addr, `list(tenants){name queries}`, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 3 {
		t.Fatalf("tenants = %v", resp.Items)
	}
	if resp.Items[0]["name"] != "acme" || resp.Items[1]["name"] != "default" {
		t.Errorf("tenant order = %v", resp.Items)
	}

	// Unknown fields are rejected with the known list, not ignored.
	if _, err := Query(addr, `list(queries){id bogus}`, false, nil); err == nil ||
		!strings.Contains(err.Error(), `unknown field "bogus"`) {
		t.Errorf("unknown field error = %v", err)
	}
}

func TestServerGet(t *testing.T) {
	eng, addr := newTestServer(t)
	resp, err := Query(addr, `get(acme/exfil){id tenant kind}`, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Item["id"] != "acme/exfil" || resp.Item["tenant"] != "acme" {
		t.Errorf("item = %v", resp.Item)
	}
	if _, err := Query(addr, `get(nope)`, false, nil); err == nil {
		t.Error("get of unknown query succeeded")
	}

	// A stateful query's hits behind a closed window show as late_hits.
	const windowed = `proc p write ip i as e #time(10 s)
state ss { n := count(e) } group by p
alert ss.n > 100
return p`
	if _, err := eng.Register("acme/windowed", windowed); err != nil {
		t.Fatal(err)
	}
	start := time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)
	for _, sec := range []int{1, 25, 2} {
		eng.Process(&saql.Event{
			Time:    start.Add(time.Duration(sec) * time.Second),
			Subject: saql.Process("a.exe", 1),
			Op:      saql.OpWrite,
			Object:  saql.NetConn("10.0.0.1", 1, "10.0.0.2", 2),
		})
	}
	resp, err = Query(addr, `get(acme/windowed){pattern_hits late_hits}`, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Item["pattern_hits"] != float64(3) || resp.Item["late_hits"] != float64(1) {
		t.Errorf("windowed item = %v, want pattern_hits 3 late_hits 1", resp.Item)
	}
	// A chain's first step left waiting past the window shows as
	// partials_expired.
	const chain = `proc p start proc c as e1 #time(10 s)
proc c write file f as e2
with e1 -> e2
return p, f`
	if _, err := eng.Register("acme/chain", chain); err != nil {
		t.Fatal(err)
	}
	for _, sec := range []int{1, 30} {
		eng.Process(&saql.Event{
			Time:    start.Add(time.Duration(sec) * time.Second),
			Subject: saql.Process("a.exe", 1),
			Op:      saql.OpStart,
			Object:  saql.Process("b.exe", int32(sec)),
		})
	}
	resp, err = Query(addr, `get(acme/chain){partials_expired partials_dropped}`, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Item["partials_expired"] != float64(1) || resp.Item["partials_dropped"] != float64(0) {
		t.Errorf("chain item = %v, want partials_expired 1 partials_dropped 0", resp.Item)
	}
	resp, err = Query(addr, `get(tenant=acme){name queries partials_expired partials_dropped}`, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Item["name"] != "acme" || resp.Item["partials_expired"] != float64(1) || resp.Item["partials_dropped"] != float64(0) {
		t.Errorf("tenant item = %v, want acme with partials_expired 1 partials_dropped 0", resp.Item)
	}
}

func TestServerMutationsNeedConfirm(t *testing.T) {
	eng, addr := newTestServer(t)

	// Without confirm: refused, nothing changes.
	_, err := Query(addr, `pause(acme/exfil)`, false, nil)
	if err == nil || !strings.Contains(err.Error(), "confirm=1") {
		t.Fatalf("unconfirmed pause error = %v", err)
	}
	if h, _ := eng.Query("acme/exfil"); h.Paused() {
		t.Fatal("unconfirmed pause took effect")
	}

	// With confirm: applied.
	resp, err := Query(addr, `pause(acme/exfil)`, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Item["paused"] != true {
		t.Errorf("pause ack = %+v", resp)
	}
	if h, _ := eng.Query("acme/exfil"); !h.Paused() {
		t.Fatal("confirmed pause did not take effect")
	}
	if _, err := Query(addr, `resume(acme/exfil)`, true, nil); err != nil {
		t.Fatal(err)
	}
	if h, _ := eng.Query("acme/exfil"); h.Paused() {
		t.Fatal("resume did not take effect")
	}
}

func TestServerQuotaAndApply(t *testing.T) {
	eng, addr := newTestServer(t)

	resp, err := Query(addr, `quota(acme, alert_budget=5, alert_window=30m, max_queries=7)`, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Errorf("quota ack = %+v", resp)
	}
	q := eng.TenantQuotas("acme")
	if q.AlertBudget != 5 || q.MaxQueries != 7 || q.AlertWindow.Minutes() != 30 {
		t.Errorf("installed quotas = %+v", q)
	}

	// A second quota call merges: it must not wipe the earlier settings.
	if _, err := Query(addr, `quota(acme, ingest_rate=100)`, true, nil); err != nil {
		t.Fatal(err)
	}
	q = eng.TenantQuotas("acme")
	if q.AlertBudget != 5 || q.IngestRate != 100 {
		t.Errorf("merged quotas = %+v", q)
	}

	doc := `tenant fresh {
  quota max_queries = 3
  query probe { proc p read file f return p }
}`
	resp, err = Query(addr, `apply()`, true, strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	added, _ := resp.Report["added"].([]any)
	if len(added) != 1 || added[0] != "fresh/probe" {
		t.Errorf("apply report = %v", resp.Report)
	}
	if got := eng.TenantQuotas("fresh").MaxQueries; got != 3 {
		t.Errorf("applied tenant quota = %d, want 3", got)
	}
}

func TestServerUpdate(t *testing.T) {
	eng, addr := newTestServer(t)
	newSrc := `proc p write file f return p`
	if _, err := Query(addr, `update(solo)`, true, strings.NewReader(newSrc)); err != nil {
		t.Fatal(err)
	}
	h, _ := eng.Query("solo")
	if h.Source() != newSrc {
		t.Errorf("source after update = %q", h.Source())
	}
	// A bad body is rejected without touching the query.
	if _, err := Query(addr, `update(solo)`, true, strings.NewReader("not saql")); err == nil {
		t.Error("bad update succeeded")
	}
	if h.Source() != newSrc {
		t.Errorf("failed update changed source: %q", h.Source())
	}
}

func TestRenderTable(t *testing.T) {
	_, addr := newTestServer(t)
	dsl := `list(queries){id tenant paused}`
	resp, err := Query(addr, dsl, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	call, _ := Parse(dsl)
	var sb strings.Builder
	RenderTable(&sb, resp, FieldsFor(call))
	out := sb.String()
	for _, want := range []string{"ID", "TENANT", "PAUSED", "acme/exfil", "globex/watch", "solo"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
