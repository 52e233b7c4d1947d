package saql

// First-class query handles and the declarative queryset layer. Register
// returns a *QueryHandle owning one query's lifecycle: Pause/Resume gate
// its event ingestion, Update hot-swaps its source at a consistent point of
// the stream (optionally carrying sliding-window state), Subscribe opens a
// per-query alert stream, and Close retires it. Engine.Apply reconciles a
// whole QuerySet — a parsed multi-query document with shared parameters —
// against the running registry, reusing the handles of unchanged queries.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"saql/internal/engine"
	"saql/internal/parser"
	"saql/internal/sema"
)

// Handle lifecycle errors.
var (
	// ErrQueryClosed is returned by operations on a closed QueryHandle, and
	// reported by AlertSubscription.Err when the subscription ended because
	// its query handle closed.
	ErrQueryClosed = errors.New("saql: query closed")
	// ErrCarryIncompatible is returned by Update when CarryWindowState was
	// requested but the replacement cannot adopt the old query's state: the
	// window spec, state block, history depth, invariant block, or shard
	// placement changed.
	ErrCarryIncompatible = errors.New("saql: cannot carry window state: window/state spec or placement changed")
)

// QueryOption configures a query at Register time.
type QueryOption func(*queryConfig)

type queryConfig struct {
	labels map[string]string
}

// WithLabel attaches an informational key/value label to the query's handle
// (rule pack, owner, severity, ticket — whatever the control plane needs).
// Repeatable; later values win per key.
func WithLabel(key, value string) QueryOption {
	return func(c *queryConfig) {
		if c.labels == nil {
			c.labels = map[string]string{}
		}
		c.labels[key] = value
	}
}

// UpdateOption configures a hot-swap performed by QueryHandle.Update.
type UpdateOption func(*updateConfig)

type carryMode uint8

const (
	carryNever carryMode = iota
	carryIfCompatible
	carryAlways
)

type updateConfig struct {
	carry carryMode
}

// CarryWindowState makes Update move the old query's sliding-window state —
// open windows, watermark, per-group history rings, invariant training
// state, and (for an unchanged return clause) the `return distinct`
// suppression table — into the replacement, instead of starting fresh. The
// carry requires an unchanged window spec, state block, history depth,
// invariant block, and shard placement (alert thresholds, pattern
// constraints, and return clauses are free to change: the live-tuning
// case); otherwise Update fails with ErrCarryIncompatible and the old query
// keeps running.
func CarryWindowState() UpdateOption {
	return func(c *updateConfig) { c.carry = carryAlways }
}

// ---------------------------------------------------------------------------
// QueryHandle
// ---------------------------------------------------------------------------

// QueryHandle is the owner of one registered query. All methods are safe
// for concurrent use with each other, with event ingestion, and with other
// handles; control operations take effect at a consistent point of the
// event stream, so a sharded engine behaves exactly like a serial one that
// performed the operation between two events. A handle whose query has been
// closed (by Close or an Apply retirement) reports ErrQueryClosed from its
// mutating methods; a name re-registered later belongs to a new handle, never
// to a closed one.
type QueryHandle struct {
	eng    *Engine
	name   string
	labels map[string]string
}

// Name returns the query's registered name.
func (h *QueryHandle) Name() string { return h.name }

// Labels returns a copy of the labels attached at Register time. Labels
// survive Update and Close.
func (h *QueryHandle) Labels() map[string]string {
	out := make(map[string]string, len(h.labels))
	for k, v := range h.labels {
		out[k] = v
	}
	return out
}

// recLocked resolves the handle's live record; the caller holds e.mu.
func (h *QueryHandle) recLocked() (*queryRecord, error) {
	rec := h.eng.reg[h.name]
	if rec == nil || rec.handle != h {
		return nil, ErrQueryClosed
	}
	return rec, nil
}

// Kind reports the query's anomaly model family (zero after Close).
func (h *QueryHandle) Kind() ModelKind {
	h.eng.mu.Lock()
	defer h.eng.mu.Unlock()
	rec, err := h.recLocked()
	if err != nil {
		return 0
	}
	return rec.q.Kind
}

// Placement reports the query's shard placement ("" after Close). A swap
// may change it: a hot-swapped query is re-placed by its new semantics.
func (h *QueryHandle) Placement() Placement {
	h.eng.mu.Lock()
	defer h.eng.mu.Unlock()
	rec, err := h.recLocked()
	if err != nil {
		return 0
	}
	return rec.q.Placement()
}

// Source returns the query's current SAQL source ("" after Close).
func (h *QueryHandle) Source() string {
	h.eng.mu.Lock()
	defer h.eng.mu.Unlock()
	rec, err := h.recLocked()
	if err != nil {
		return ""
	}
	return rec.src
}

// Paused reports whether the query is paused (false after Close).
func (h *QueryHandle) Paused() bool {
	h.eng.mu.Lock()
	defer h.eng.mu.Unlock()
	rec, err := h.recLocked()
	if err != nil {
		return false
	}
	return rec.paused
}

// Stats returns the query's runtime counters (Engine.QueryStats), serial's
// at every shard count. After Close it returns ErrQueryClosed.
func (h *QueryHandle) Stats() (QueryStats, error) {
	e := h.eng
	e.mu.Lock()
	_, err := h.recLocked()
	e.mu.Unlock()
	if err != nil {
		return QueryStats{}, err
	}
	// QueryStats runs without e.mu (on a running engine it is a capture at a
	// control barrier); a Close racing in between surfaces as not-found.
	st, ok := e.QueryStats(h.name)
	if !ok {
		return QueryStats{}, ErrQueryClosed
	}
	return st, nil
}

// Pause suspends the query: subsequent events skip it entirely — no pattern
// matching, no state folding, no watermark advance — while all accumulated
// state (open windows, histories, invariant training, partial matches) is
// retained for Resume. Pausing a stateful query stretches its quiet period:
// its watermark freezes, so windows spanning the pause close only at the
// first event after Resume (or at flush). Pause is idempotent; it takes
// effect at a consistent point of the stream on every shard.
func (h *QueryHandle) Pause() error { return h.setPaused(true) }

// Resume re-activates a paused query. Events submitted after Resume flow
// into the state as if the pause had been a gap in that query's input, and
// the query rejoins the stream at its watermark — the latest event time the
// stream has shown, the events of the pause included: the first event after
// Resume closes the windows the stream has passed, and a hit older than such
// a window counts in QueryStats.LateHits.
func (h *QueryHandle) Resume() error { return h.setPaused(false) }

func (h *QueryHandle) setPaused(p bool) error {
	e := h.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	rec, err := h.recLocked()
	if err != nil {
		return err
	}
	if engineState(e.state.Load()) == stateClosed {
		return ErrClosed
	}
	if rec.paused == p {
		return nil
	}
	if rt := e.rt.Load(); rt != nil {
		if _, err := rt.Pause(h.name, p); err != nil {
			return err
		}
	} else {
		e.sched.SetPaused(h.name, p)
	}
	rec.paused = p
	return nil
}

// Update hot-swaps the query's source: the replacement is compiled and
// atomically substituted on the owning shard(s) at one consistent point of
// the event stream — alert-for-alert equivalent to Close then Register
// executed between two events, with the name, handle, labels, and pause
// state preserved. A pinned query keeps its home shard. By default the
// replacement starts with fresh state; pass CarryWindowState to adopt the
// old query's sliding-window state when the window/state layer is
// unchanged. Master–dependent scheduler groups are recomputed: the
// replacement joins whichever group its constraints now place it in. On a
// compile error the old query keeps running untouched. A fresh replacement
// starts at the stream watermark, as a query registered mid-stream does
// (Engine.Register).
func (h *QueryHandle) Update(src string, opts ...UpdateOption) error {
	var uc updateConfig
	for _, o := range opts {
		o(&uc)
	}
	e := h.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	rec, err := h.recLocked()
	if err != nil {
		return err
	}
	if engineState(e.state.Load()) == stateClosed {
		return ErrClosed
	}
	newQ, err := e.compile(h.name, src)
	if err != nil {
		return err
	}
	return e.updateLocked(rec, src, newQ, uc.carry)
}

// updateLocked swaps rec's query for newQ (already compiled). Caller holds
// e.mu and has checked the engine is not closed.
func (e *Engine) updateLocked(rec *queryRecord, src string, newQ *engine.Query, mode carryMode) error {
	carry := false
	if mode != carryNever {
		if newQ.CanCarryStateFrom(rec.q) && newQ.Placement() == rec.q.Placement() {
			carry = true
		} else if mode == carryAlways {
			return ErrCarryIncompatible
		}
	}
	if rec.paused {
		newQ.SetPaused(true)
	}
	if rt := e.rt.Load(); rt != nil {
		if err := rt.Swap(newQ, carry); err != nil {
			return err
		}
	} else if err := e.sched.Swap(rec.name, newQ, carry); err != nil {
		return err
	}
	rec.src, rec.q = src, newQ
	return nil
}

// Subscribe opens a push-based alert stream carrying only this query's
// alerts: a filtered fan-out on top of the engine-wide stream, with the
// same buffering and overflow semantics as Engine.Subscribe. The stream
// survives Update (the name is the identity) and ends when the handle or
// the engine closes; Err then reports ErrQueryClosed or ErrClosed.
// Subscribing on an already-closed handle returns a born-closed
// subscription with Err() == ErrQueryClosed.
func (h *QueryHandle) Subscribe(buf int, policy OverflowPolicy) *AlertSubscription {
	e := h.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	rec, err := h.recLocked()
	if err != nil {
		return e.fan.ClosedSubscription(ErrQueryClosed)
	}
	name := h.name
	sub := e.fan.SubscribeFunc(buf, policy, func(a *Alert) bool { return a.Query == name })
	// Drop subscriptions the subscriber already cancelled, so a long-lived
	// handle does not accumulate dead entries across repeated
	// Subscribe/Close cycles.
	live := rec.subs[:0]
	for _, s := range rec.subs {
		if !s.Ended() {
			live = append(live, s)
		}
	}
	rec.subs = append(live, sub)
	return sub
}

// Close retires the query: it is unregistered at a consistent point of the
// stream (open windows are discarded, not flushed), its per-query
// subscriptions end with Err() == ErrQueryClosed, and the name becomes free
// for re-registration (under a new handle). Close is idempotent; closing an
// already-closed handle returns nil. On a closed engine it returns
// ErrClosed.
func (h *QueryHandle) Close() error {
	e := h.eng
	e.mu.Lock()
	rec, err := h.recLocked()
	if err != nil {
		e.mu.Unlock()
		return nil // already closed: idempotent
	}
	subs, err := e.closeLocked(rec)
	e.mu.Unlock()
	for _, sub := range subs {
		e.fan.End(sub, ErrQueryClosed)
	}
	return err
}

// closeLocked unregisters rec, returning the per-query subscriptions for
// the caller to end after releasing e.mu (ending a subscription waits out
// in-flight alert deliveries, which must not happen under the engine lock).
func (e *Engine) closeLocked(rec *queryRecord) ([]*AlertSubscription, error) {
	if engineState(e.state.Load()) == stateClosed {
		return nil, ErrClosed
	}
	if rt := e.rt.Load(); rt != nil {
		if _, err := rt.Remove(rec.name); err != nil {
			return nil, err
		}
	} else if !e.sched.Remove(rec.name) {
		return nil, fmt.Errorf("saql: query %q missing from scheduler", rec.name)
	}
	delete(e.reg, rec.name)
	subs := rec.subs
	rec.subs = nil
	return subs, nil
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

// Register parses, checks, compiles, and registers a SAQL query under name,
// returning the handle that owns its lifecycle. It may be called before
// Start or while running; in the running state the query is installed at a
// consistent point of the event stream and begins with the next event. A
// query registered mid-stream starts at the stream watermark — the latest
// event time the stream has shown, on a serial, started or restored engine
// alike — so a hit older than a window the stream has already passed counts
// in QueryStats.LateHits.
func (e *Engine) Register(name, src string, opts ...QueryOption) (*QueryHandle, error) {
	var qc queryConfig
	for _, o := range opts {
		o(&qc)
	}
	q, err := e.compile(name, src)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.registerLocked(name, src, q, qc.labels, false)
}

// registerLocked installs a compiled query. Caller holds e.mu.
func (e *Engine) registerLocked(name, src string, q *engine.Query, labels map[string]string, managed bool) (*QueryHandle, error) {
	if engineState(e.state.Load()) == stateClosed {
		return nil, ErrClosed
	}
	if _, dup := e.reg[name]; dup {
		return nil, fmt.Errorf("saql: duplicate query name %q", name)
	}
	ten := TenantOf(name)
	if !managed {
		// Manual registrations check the tenant's query ceiling here; Apply
		// (managed) validated the whole post-reconciliation shape up front,
		// and re-checking per add would reject sets that add before they
		// remove.
		var have int64
		for n := range e.reg {
			if TenantOf(n) == ten {
				have++
			}
		}
		if err := e.checkQueryQuota(ten, have, 1); err != nil {
			return nil, err
		}
	}
	rec := &queryRecord{name: name, src: src, q: q, managed: managed}
	rec.handle = &QueryHandle{eng: e, name: name, labels: labels}
	if rt := e.rt.Load(); rt != nil {
		if _, err := rt.Add(q); err != nil {
			return nil, err
		}
	} else if err := e.sched.Add(q); err != nil {
		return nil, err
	}
	e.reg[name] = rec
	e.touchTenant(ten)
	return rec.handle, nil
}

// Query returns the live handle of a registered query.
func (e *Engine) Query(name string) (*QueryHandle, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rec, ok := e.reg[name]
	if !ok {
		return nil, false
	}
	return rec.handle, true
}

// Queries returns the live handles of every registered query, sorted by
// name.
func (e *Engine) Queries() []*QueryHandle {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*QueryHandle, 0, len(e.reg))
	for _, rec := range e.reg {
		out = append(out, rec.handle)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// ---------------------------------------------------------------------------
// Querysets: the declarative layer
// ---------------------------------------------------------------------------

// QuerySet is a named collection of SAQL queries — the unit Engine.Apply
// reconciles against the running registry. Build one from a queryset
// document (ParseQuerySet), from individual queries (NewQuerySet + Add), or
// from a mix of files (ParseQueryOrSet + Merge). A QuerySet is a plain
// value: validated at construction and immutable through Apply.
type QuerySet struct {
	entries []querySetEntry
	// quotas are the document's tenant quota declarations; Apply installs
	// them before reconciling, so a raised quota takes effect for its own
	// document.
	quotas map[string]TenantQuotas
}

type querySetEntry struct {
	name string
	src  string
}

// setQuotas declares quotas for a tenant, replacing any earlier declaration
// for the same tenant in this set.
func (s *QuerySet) setQuotas(tenant string, q TenantQuotas) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if s.quotas == nil {
		s.quotas = map[string]TenantQuotas{}
	}
	s.quotas[tenant] = q
}

// NewQuerySet returns an empty queryset.
func NewQuerySet() *QuerySet { return &QuerySet{} }

// ParseQuerySet parses and validates a queryset document: any interleaving
// of shared parameter declarations and named queries,
//
//	param threshold = 1000000
//
//	query exfil-volume {
//	  proc p write ip i as e #time(10 min)
//	  state ss { amt := sum(e.amount) } group by p
//	  alert ss.amt > $threshold
//	  return p, ss.amt
//	}
//
// Parameters are substituted into the query bodies at parse time ($name
// references outside string literals and comments), so the set Apply sees
// is ordinary SAQL. Every query is semantically checked; the first error is
// reported with its query's name.
func ParseQuerySet(src string) (*QuerySet, error) {
	doc, err := parser.ParseQuerySetDoc(src)
	if err != nil {
		return nil, err
	}
	qs := &QuerySet{}
	for _, q := range doc.Queries {
		if _, err := sema.Check(q.AST); err != nil {
			return nil, fmt.Errorf("query %q: %w", q.Name, err)
		}
		qs.entries = append(qs.entries, querySetEntry{name: q.Name, src: q.Src})
	}
	for _, t := range doc.Tenants {
		qs.setQuotas(t.Name, TenantQuotas{
			MaxQueries:    t.Quotas.MaxQueries,
			MaxStateBytes: t.Quotas.MaxStateKB * 1024,
			AlertBudget:   t.Quotas.AlertBudget,
			AlertWindow:   t.Quotas.AlertWindow,
			IngestRate:    t.Quotas.IngestRate,
		})
	}
	return qs, nil
}

// ParseQueryOrSet accepts either a queryset document or a bare SAQL query:
// the file-loading path of tools that treat each *.saql file as one rule
// (named by the file) unless it declares `query`/`param` sections. name
// names the query in the bare case and is ignored for queryset documents.
func ParseQueryOrSet(name, src string) (*QuerySet, error) {
	if parser.LooksLikeQuerySet(src) {
		return ParseQuerySet(src)
	}
	qs := NewQuerySet()
	if err := qs.Add(name, src); err != nil {
		return nil, err
	}
	return qs, nil
}

// Add validates one bare SAQL query and appends it to the set. Duplicate
// names are rejected.
func (s *QuerySet) Add(name, src string) error {
	if err := Validate(src); err != nil {
		return fmt.Errorf("query %q: %w", name, err)
	}
	for _, ent := range s.entries {
		if ent.name == name {
			return fmt.Errorf("saql: duplicate query name %q in set", name)
		}
	}
	s.entries = append(s.entries, querySetEntry{name: name, src: src})
	return nil
}

// Merge appends every query of other to s, rejecting duplicate names. On a
// duplicate nothing is merged: s is left exactly as it was.
func (s *QuerySet) Merge(other *QuerySet) error {
	if other == nil {
		return nil
	}
	seen := make(map[string]bool, len(s.entries)+len(other.entries))
	for _, ent := range s.entries {
		seen[ent.name] = true
	}
	for _, ent := range other.entries {
		if seen[ent.name] {
			return fmt.Errorf("saql: duplicate query name %q in set", ent.name)
		}
		seen[ent.name] = true
	}
	s.entries = append(s.entries, other.entries...)
	for ten, q := range other.quotas {
		s.setQuotas(ten, q)
	}
	return nil
}

// Len reports how many queries the set holds.
func (s *QuerySet) Len() int { return len(s.entries) }

// Names lists the set's query names in declaration order.
func (s *QuerySet) Names() []string {
	out := make([]string, len(s.entries))
	for i, ent := range s.entries {
		out[i] = ent.name
	}
	return out
}

// Source returns the (parameter-substituted) SAQL source of a named query.
func (s *QuerySet) Source(name string) (string, bool) {
	for _, ent := range s.entries {
		if ent.name == name {
			return ent.src, true
		}
	}
	return "", false
}

// ChangeReport describes what one Engine.Apply reconciliation did. Name
// lists are sorted.
type ChangeReport struct {
	Added     []string // registered fresh
	Updated   []string // source changed: hot-swapped in place
	Unchanged []string // identical source: handle untouched
	Removed   []string // managed queries absent from the set: retired
}

// Empty reports whether the reconciliation changed nothing.
func (r *ChangeReport) Empty() bool {
	return len(r.Added) == 0 && len(r.Updated) == 0 && len(r.Removed) == 0
}

// String renders the report in one line.
func (r *ChangeReport) String() string {
	if r.Empty() {
		return fmt.Sprintf("no changes (%d unchanged)", len(r.Unchanged))
	}
	var parts []string
	add := func(verb string, names []string) {
		if len(names) > 0 {
			parts = append(parts, fmt.Sprintf("%d %s (%s)", len(names), verb, strings.Join(names, ", ")))
		}
	}
	add("added", r.Added)
	add("updated", r.Updated)
	add("removed", r.Removed)
	parts = append(parts, fmt.Sprintf("%d unchanged", len(r.Unchanged)))
	return strings.Join(parts, ", ")
}

// Apply reconciles the queryset against the running registry and returns
// what changed:
//
//   - a query whose registered source is byte-identical is left untouched
//     (its handle — and all its subscriptions and state — survive as-is);
//   - a query registered under the same name with different source is
//     hot-swapped in place via the handle's Update, carrying sliding-window
//     state whenever the window/state layer is unchanged;
//   - an unregistered query is registered fresh;
//   - a query previously applied (managed) but absent from the set is
//     retired, as if its handle's Close had been called.
//
// Every query Apply touches or matches becomes managed, including queries
// first registered manually: applying a set adopts the names it lists.
// Queries registered manually and never listed in a set are left alone.
//
// The whole set is compiled before anything is mutated, so a set with any
// invalid query fails with no changes. ctx cancels the compile phase; the
// mutation phase is brief and runs to completion. Each individual change
// lands at a consistent point of the event stream, but distinct changes may
// land at different points; queries not in the report are never perturbed.
func (e *Engine) Apply(ctx context.Context, set *QuerySet) (*ChangeReport, error) {
	report := &ChangeReport{}
	if set == nil {
		return report, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}

	type addOp struct {
		name, src string
		q         *engine.Query
	}
	type updOp struct {
		rec *queryRecord
		src string
		q   *engine.Query
	}

	e.mu.Lock()
	if engineState(e.state.Load()) == stateClosed {
		e.mu.Unlock()
		return nil, ErrClosed
	}

	// Plan: compile every new or changed query first, so an invalid set
	// aborts before any mutation.
	var adds []addOp
	var upds []updOp
	var unchanged []*queryRecord
	inSet := map[string]bool{}
	for _, ent := range set.entries {
		if err := ctx.Err(); err != nil {
			e.mu.Unlock()
			return nil, err
		}
		inSet[ent.name] = true
		rec := e.reg[ent.name]
		if rec != nil && rec.src == ent.src {
			unchanged = append(unchanged, rec)
			continue
		}
		q, err := e.compile(ent.name, ent.src)
		if err != nil {
			e.mu.Unlock()
			return nil, fmt.Errorf("apply %q: %w", ent.name, err)
		}
		if rec == nil {
			adds = append(adds, addOp{ent.name, ent.src, q})
		} else {
			upds = append(upds, updOp{rec, ent.src, q})
		}
	}
	// Install the document's tenant quota declarations before enforcement,
	// so a quota raised in this very document admits the document's own
	// queries (the hot-raise path). Declarations stick even if the
	// reconciliation below is rejected — they are operator settings, not
	// part of the query plan.
	for ten, q := range set.quotas {
		e.SetTenantQuotas(ten, q)
	}

	var removals []*queryRecord
	for name, rec := range e.reg {
		if rec.managed && !inSet[name] {
			removals = append(removals, rec)
		}
	}
	sort.Slice(removals, func(i, j int) bool { return removals[i].name < removals[j].name })

	// Tenant quota gate: validate the post-reconciliation query counts and
	// the tenants' current live state before mutating anything, so an
	// over-quota set fails whole with *QuotaError and no changes.
	removedNames := make(map[string]bool, len(removals))
	for _, rec := range removals {
		removedNames[rec.name] = true
	}
	finalCount := map[string]int64{}
	for name := range e.reg {
		if !removedNames[name] {
			finalCount[TenantOf(name)]++
		}
	}
	for _, op := range adds {
		finalCount[TenantOf(op.name)]++
	}
	var gated []string // the kept queries of tenants with a state quota
	for name := range e.reg {
		if !removedNames[name] && e.TenantQuotas(TenantOf(name)).MaxStateBytes > 0 {
			gated = append(gated, name)
		}
	}
	stats, err := e.queryStats(true, gated...)
	live := map[string]int64{}
	for name, st := range stats {
		live[TenantOf(name)] += st.StateBytes
	}
	for ten, n := range finalCount {
		if err == nil {
			err = e.checkQueryQuota(ten, n, 0)
		}
		if err == nil {
			err = e.checkStateQuota(ten, live[ten])
		}
	}
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}

	// The plan passed compilation and quota checks: only now may the set
	// adopt its unchanged matches (a failed Apply must leave manual
	// registrations unmanaged).
	for _, rec := range unchanged {
		rec.managed = true
		report.Unchanged = append(report.Unchanged, rec.name)
	}

	// Execute. Post-validation failures are practically unreachable (swap
	// and add cannot conflict after the plan); if one occurs the report
	// reflects exactly what was applied before the error.
	var ended []*AlertSubscription
	var firstErr error
	for _, op := range upds {
		if err := e.updateLocked(op.rec, op.src, op.q, carryIfCompatible); err != nil {
			firstErr = fmt.Errorf("apply %q: %w", op.rec.name, err)
			break
		}
		op.rec.managed = true
		report.Updated = append(report.Updated, op.rec.name)
	}
	if firstErr == nil {
		for _, op := range adds {
			if _, err := e.registerLocked(op.name, op.src, op.q, nil, true); err != nil {
				firstErr = fmt.Errorf("apply %q: %w", op.name, err)
				break
			}
			report.Added = append(report.Added, op.name)
		}
	}
	if firstErr == nil {
		for _, rec := range removals {
			subs, err := e.closeLocked(rec)
			ended = append(ended, subs...)
			if err != nil {
				firstErr = fmt.Errorf("apply: retire %q: %w", rec.name, err)
				break
			}
			report.Removed = append(report.Removed, rec.name)
		}
	}
	e.mu.Unlock()

	for _, sub := range ended {
		e.fan.End(sub, ErrQueryClosed)
	}
	sort.Strings(report.Added)
	sort.Strings(report.Updated)
	sort.Strings(report.Unchanged)
	sort.Strings(report.Removed)
	return report, firstErr
}
