package saql

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"saql/internal/snapshot"
)

// Tenancy groups queries into named namespaces with per-tenant quotas — the
// production shape of the paper's multi-analyst setting, where many teams'
// rules run concurrently over one stream. A query named "acme/exfil" belongs
// to tenant "acme"; unqualified names fall into DefaultTenant. Tenants are
// implicit (registering a query creates its tenant) and carry quotas that
// degrade or reject in typed, observable ways rather than affecting other
// tenants: the alert budget suppresses (and counts) excess alerts, the
// ingest rate drops (and counts) excess source events, and the query/state
// ceilings reject Register/Apply with *QuotaError. All windowed accounting
// runs on stream (event) time, never the wall clock, so replays and live
// runs behave identically.

// DefaultTenant is the namespace of queries whose name has no "tenant/"
// prefix.
const DefaultTenant = "default"

// TenantOf reports the tenant a query name belongs to: the segment before
// the first '/', or DefaultTenant for unqualified names.
func TenantOf(queryName string) string {
	if i := strings.IndexByte(queryName, '/'); i > 0 {
		return queryName[:i]
	}
	return DefaultTenant
}

// TenantQuotas bound one tenant's resource use. Zero values mean unlimited.
type TenantQuotas struct {
	// MaxQueries caps how many queries the tenant may have registered;
	// Register and Apply fail with *QuotaError beyond it.
	MaxQueries int64
	// MaxStateBytes caps the tenant's live state footprint (the serialized
	// size of its queries' window/match state, TenantStats.StateBytes);
	// Apply fails with *QuotaError when the tenant is already over it.
	MaxStateBytes int64
	// AlertBudget caps alerts delivered per AlertWindow of stream time.
	// Over-budget alerts are suppressed and counted
	// (TenantStats.Suppressed); evaluation continues untouched.
	AlertBudget int64
	// AlertWindow is the alert-budget accounting window (default one hour).
	AlertWindow time.Duration
	// IngestRate caps events per second of stream time accepted from the
	// tenant's sources; excess events are dropped and counted
	// (TenantStats.EventsThrottled).
	IngestRate int64
}

// TenantStats is one tenant's control-plane snapshot.
type TenantStats struct {
	Name    string
	Queries int // registered queries
	Paused  int // of which paused
	// Alerts counts alerts delivered within budget; Suppressed counts
	// alerts dropped by an exhausted alert budget.
	Alerts     int64
	Suppressed int64
	// SourceEvents counts events accepted from the tenant's sources;
	// EventsThrottled counts events dropped by the ingest-rate quota.
	SourceEvents    int64
	EventsThrottled int64
	// StateBytes is the serialized live-state footprint of the tenant's
	// queries: the sum of their QueryStats.StateBytes, the serial engine's
	// at every shard count.
	StateBytes int64
	// PartialsExpired and PartialsDropped sum QueryStats.PartialsExpired and
	// PartialsDropped over the tenant's queries: partial multievent matches
	// that aged past their window, and those refused at the partial cap.
	PartialsExpired int64
	PartialsDropped int64
	// SharingRatio is naive-per-tenant over actual evaluation work: how many
	// evaluation streams this tenant's active queries would need standalone,
	// per stream they actually consume in their (possibly cross-tenant)
	// sharing groups. 1.0 means no sharing benefit.
	SharingRatio float64
	// Degraded lists the quotas currently degrading this tenant's service
	// ("alert_budget", "ingest_rate"); empty when none.
	Degraded []string
	Quotas   TenantQuotas
}

// QuotaError reports a control-plane operation rejected by a tenant quota.
type QuotaError struct {
	Tenant string
	Quota  string // "max_queries" or "max_state_bytes"
	Limit  int64
	Need   int64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("saql: tenant %q over %s quota (limit %d, need %d)", e.Tenant, e.Quota, e.Limit, e.Need)
}

// ringMinutes sizes the per-query alert ring: one bucket per minute of
// stream time, enough to answer "alerts in the last hour" exactly.
const ringMinutes = 61

// alertRing counts alerts per stream-time minute. Buckets are stamped with
// their unix minute and lazily reset on reuse, so the ring needs no ticker.
type alertRing struct {
	mins  [ringMinutes]int64
	count [ringMinutes]int64
}

func (r *alertRing) add(t time.Time) {
	m := t.Unix() / 60
	i := m % ringMinutes
	if i < 0 {
		i += ringMinutes
	}
	switch {
	case r.count[i] > 0 && r.mins[i] > m:
		// A minute older than the one its bucket holds: more than the ring's
		// span behind, outside every window sum answers.
		return
	case r.mins[i] != m:
		r.mins[i] = m
		r.count[i] = 0
	}
	r.count[i]++
}

// sum counts alerts stamped within (now-window, now].
func (r *alertRing) sum(now time.Time, window time.Duration) int64 {
	if window <= 0 {
		window = time.Hour
	}
	lo := now.Add(-window).Unix() / 60
	hi := now.Unix() / 60
	var total int64
	for i := range r.mins {
		if r.count[i] > 0 && r.mins[i] > lo && r.mins[i] <= hi {
			total += r.count[i]
		}
	}
	return total
}

// tenantState is the engine-side record behind one tenant. All fields are
// guarded by Engine.tenMu.
type tenantState struct {
	quotas TenantQuotas
	// The alert budget's window and the counters, as a checkpoint holds them.
	snapshot.Account

	// Ingest rate, on stream time: rlSec is the current one-second bucket,
	// rlUsed its consumed allowance.
	rlSec  time.Time
	rlUsed int64

	perQ map[string]*alertRing // per-query recent-alert rings
}

// tenantLocked returns (creating on first touch) the named tenant's state.
// Caller holds e.tenMu.
func (e *Engine) tenantLocked(name string) *tenantState {
	ts := e.tenants[name]
	if ts == nil {
		ts = &tenantState{perQ: map[string]*alertRing{}}
		e.tenants[name] = ts
	}
	return ts
}

// touchTenant ensures the named tenant exists, so registering a query makes
// its tenant visible to Tenants() even before any quota or alert activity.
func (e *Engine) touchTenant(name string) {
	e.tenMu.Lock()
	e.tenantLocked(name)
	e.tenMu.Unlock()
}

// SetTenantQuotas installs (or hot-updates) a tenant's quotas. Raising a
// quota takes effect immediately — an alert budget raised mid-window admits
// further alerts in the same window.
func (e *Engine) SetTenantQuotas(tenant string, q TenantQuotas) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	e.tenMu.Lock()
	e.tenantLocked(tenant).quotas = q
	e.tenMu.Unlock()
}

// TenantQuotas reports a tenant's current quotas (zero value for an unknown
// tenant).
func (e *Engine) TenantQuotas(tenant string) TenantQuotas {
	e.tenMu.Lock()
	defer e.tenMu.Unlock()
	if ts := e.tenants[tenant]; ts != nil {
		return ts.quotas
	}
	return TenantQuotas{}
}

// admitAlert is the fan-out gate (runtime.AlertFanout.SetGate): it charges
// the alert to its query's tenant and decides delivery against the alert
// budget. Over-budget alerts are suppressed and counted; the queries keep
// evaluating, so one tenant's noise never perturbs another's results. Runs
// under the fan-out's publish lock; window accounting uses the alert's
// event time (stream clock).
func (e *Engine) admitAlert(a *Alert) bool {
	e.tenMu.Lock()
	defer e.tenMu.Unlock()
	ts := e.tenantLocked(TenantOf(a.Query))
	if a.EventTime.After(e.alertMax) {
		e.alertMax = a.EventTime
	}
	if budget := ts.quotas.AlertBudget; budget > 0 {
		w := ts.quotas.AlertWindow
		if w <= 0 {
			w = time.Hour
		}
		if ts.WinStart.IsZero() || !a.EventTime.Before(ts.WinStart.Add(w)) {
			ts.WinStart = a.EventTime.Truncate(w)
			ts.WinCount = 0
		}
		if ts.WinCount >= budget {
			ts.Suppressed++
			return false
		}
		ts.WinCount++
	}
	ts.Delivered++
	ring := ts.perQ[a.Query]
	if ring == nil {
		ring = &alertRing{}
		ts.perQ[a.Query] = ring
	}
	ring.add(a.EventTime)
	return true
}

// admitEvents applies a tenant's ingest-rate quota to one batch, on stream
// time: each event charges the one-second bucket of its own timestamp.
// Excess events are dropped in place and counted. The returned slice aliases
// evs.
func (e *Engine) admitEvents(tenant string, evs []*Event) []*Event {
	if tenant == "" {
		tenant = DefaultTenant
	}
	e.tenMu.Lock()
	defer e.tenMu.Unlock()
	ts := e.tenantLocked(tenant)
	rate := ts.quotas.IngestRate
	if rate <= 0 {
		ts.SrcEvents += int64(len(evs))
		return evs
	}
	kept := evs[:0]
	for _, ev := range evs {
		sec := ev.Time.Truncate(time.Second)
		if sec.After(ts.rlSec) {
			ts.rlSec = sec
			ts.rlUsed = 0
		}
		if ts.rlUsed >= rate {
			ts.Throttled++
			continue
		}
		ts.rlUsed++
		kept = append(kept, ev)
	}
	ts.SrcEvents += int64(len(kept))
	return kept
}

// RecentAlerts reports how many alerts the named query delivered within the
// trailing window of stream time (relative to the newest alert the engine
// has seen). Resolution is one minute; history beyond ringMinutes is gone,
// so windows longer than an hour underreport.
func (e *Engine) RecentAlerts(query string, window time.Duration) int64 {
	e.tenMu.Lock()
	defer e.tenMu.Unlock()
	ts := e.tenants[TenantOf(query)]
	if ts == nil {
		return 0
	}
	ring := ts.perQ[query]
	if ring == nil {
		return 0
	}
	return ring.sum(e.alertMax, window)
}

// TenantStats reports one tenant's control-plane snapshot.
func (e *Engine) TenantStats(tenant string) (TenantStats, bool) {
	for _, ts := range e.Tenants() {
		if ts.Name == tenant {
			return ts, true
		}
	}
	return TenantStats{}, false
}

// Tenants reports every tenant's control-plane snapshot, sorted by name. A
// tenant exists once it has a query, a source, or quotas.
func (e *Engine) Tenants() []TenantStats {
	// Registry snapshot first (own lock), then evaluation-group structure
	// and every query's counters (one runtime capture on a running engine),
	// then the tenant counters — never more than one lock at a time.
	type qinfo struct {
		tenant string
		paused bool
	}
	e.mu.Lock()
	queries := make(map[string]qinfo, len(e.reg))
	for name, rec := range e.reg {
		queries[name] = qinfo{tenant: TenantOf(name), paused: rec.paused}
	}
	e.mu.Unlock()

	naive := map[string]float64{}
	stream := map[string]float64{}
	grouped := map[string]bool{}
	countGroup := func(members []string) {
		active := 0
		perTenant := map[string]int{}
		for _, m := range members {
			qi, ok := queries[m]
			if !ok || qi.paused {
				continue
			}
			active++
			perTenant[qi.tenant]++
		}
		if active == 0 {
			return
		}
		for ten, n := range perTenant {
			naive[ten] += float64(n)
			stream[ten] += float64(n) / float64(active)
		}
	}
	for master, deps := range e.groups() {
		members := append([]string{master}, deps...)
		for _, m := range members {
			grouped[m] = true
		}
		countGroup(members)
	}
	for name := range queries {
		if !grouped[name] {
			countGroup([]string{name})
		}
	}

	stateBytes, expired, dropped := map[string]int64{}, map[string]int64{}, map[string]int64{}
	stats, _ := e.queryStats(false, slices.Collect(maps.Keys(queries))...)
	for name, qs := range stats {
		stateBytes[TenantOf(name)] += qs.StateBytes
		expired[TenantOf(name)] += qs.PartialsExpired
		dropped[TenantOf(name)] += qs.PartialsDropped
	}

	e.tenMu.Lock()
	for _, qi := range queries {
		e.tenantLocked(qi.tenant)
	}
	out := make([]TenantStats, 0, len(e.tenants))
	for name, ts := range e.tenants {
		st := TenantStats{
			Name:            name,
			Alerts:          ts.Delivered,
			Suppressed:      ts.Suppressed,
			SourceEvents:    ts.SrcEvents,
			EventsThrottled: ts.Throttled,
			StateBytes:      stateBytes[name],
			PartialsExpired: expired[name],
			PartialsDropped: dropped[name],
			Quotas:          ts.quotas,
		}
		if stream[name] > 0 {
			st.SharingRatio = naive[name] / stream[name]
		}
		if b := ts.quotas.AlertBudget; b > 0 && ts.WinCount >= b {
			st.Degraded = append(st.Degraded, "alert_budget")
		}
		if r := ts.quotas.IngestRate; r > 0 && ts.rlUsed >= r {
			st.Degraded = append(st.Degraded, "ingest_rate")
		}
		out = append(out, st)
	}
	e.tenMu.Unlock()

	for i := range out {
		for _, qi := range queries {
			if qi.tenant == out[i].Name {
				out[i].Queries++
				if qi.paused {
					out[i].Paused++
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// checkQueryQuota enforces MaxQueries for adding n queries to a tenant that
// currently has have registered. Caller holds e.tenMu or accepts benign
// raciness; Register/Apply call it under e.mu with a consistent have.
func (e *Engine) checkQueryQuota(tenant string, have, adding int64) error {
	e.tenMu.Lock()
	defer e.tenMu.Unlock()
	ts := e.tenants[tenant]
	if ts == nil || ts.quotas.MaxQueries <= 0 {
		return nil
	}
	if have+adding > ts.quotas.MaxQueries {
		return &QuotaError{Tenant: tenant, Quota: "max_queries", Limit: ts.quotas.MaxQueries, Need: have + adding}
	}
	return nil
}

// checkStateQuota enforces MaxStateBytes given a tenant's current live
// footprint.
func (e *Engine) checkStateQuota(tenant string, liveBytes int64) error {
	e.tenMu.Lock()
	defer e.tenMu.Unlock()
	ts := e.tenants[tenant]
	if ts == nil || ts.quotas.MaxStateBytes <= 0 {
		return nil
	}
	if liveBytes > ts.quotas.MaxStateBytes {
		return &QuotaError{Tenant: tenant, Quota: "max_state_bytes", Limit: ts.quotas.MaxStateBytes, Need: liveBytes}
	}
	return nil
}
