package engine

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"saql/internal/ast"
	"saql/internal/cluster"
	"saql/internal/invariant"
	"saql/internal/matcher"
	"saql/internal/parser"
	"saql/internal/pcode"
	"saql/internal/sema"
	"saql/internal/value"
	"saql/internal/window"
)

// CompileOptions tune a compiled query's resource bounds.
type CompileOptions struct {
	// MatchHorizon bounds how long a partial multievent match may wait for
	// its next event. Zero uses the query's #time window, or 10 minutes.
	MatchHorizon time.Duration
	// MaxPartials caps the multievent matcher's partial-match table.
	MaxPartials int
	// MaxDistinct caps the `return distinct` suppression table.
	MaxDistinct int
	// GroupIdleWindows is how many consecutive empty windows a group's
	// state survives before it is evicted. Zero derives it from the
	// query's history/training depth.
	GroupIdleWindows int
	// Fallbacks, when non-nil, receives this query's string-fallback
	// comparison counts, so each engine attributes fallbacks to its own
	// queries (nil: the counts go nowhere anyone reads). Engine-internal
	// plumbing: the snapshot codec serialises CompileOptions field by field
	// and deliberately omits this pointer.
	Fallbacks *atomic.Int64
}

func (o CompileOptions) withDefaults() CompileOptions {
	if o.MaxPartials <= 0 {
		o.MaxPartials = 4096
	}
	if o.MaxDistinct <= 0 {
		o.MaxDistinct = 1 << 16
	}
	return o
}

// Query is a compiled, executable SAQL query. A Query is not safe for
// concurrent use; the engine serialises event delivery per query.
type Query struct {
	Name string
	AST  *ast.Query
	Info *sema.Info
	Kind ModelKind

	opts CompileOptions

	// Pattern matching.
	patterns []*matcher.Pattern
	global   *pcode.EventProg
	seq      *matcher.SeqMatcher // nil for stateful queries

	// Stateful execution.
	stateful bool
	winMgr   *window.Manager
	groupBy  []ast.Expr
	// keyProgs[pattern][item] and argProgs[pattern][field] are the group-by
	// items and aggregation arguments compiled against one pattern's
	// bindings: a hit reads its key and its arguments straight off the event.
	keyProgs [][]*pcode.Prog
	argProgs [][]*pcode.Prog
	// Every program of the query — those above and the close-time ones below
	// — runs against frame on progStack, sized for the deepest of them.
	frame     pcode.Frame
	progStack []value.Value
	// slots[pattern] are the window manager's binding slots a hit of that
	// pattern writes into its group (see assignSlots).
	slots      []patternSlots
	historyLen int
	idleLimit  int
	groups     map[string]*groupRuntime
	// log is the slice log the query's hits wait in until they fold: its
	// variant set's in the scheduler that holds it. Everything that reads or
	// hands over the query's state settles it first (settle).
	log *SliceLog

	// Invariant model: the variables' initial values by declaration index,
	// and the update statements compiled with the variable each assigns.
	invSpec    invariant.Spec
	invInits   []value.Value
	invUpdates []invUpdate
	hasInv     bool

	// Outlier model.
	hasCluster  bool
	clusterDist cluster.Distance
	clusterName string
	clusterArgs []float64
	pointProg   *pcode.Prog

	// Output: what a completed match or a closed window's group evaluates
	// (close.go), compiled in the close scope.
	alertProgs []*pcode.Prog
	returns    []returnItem
	distinct   map[string]struct{}

	// paused gates event ingestion (see SetPaused). It is mutated only at
	// consistent stream points, under the owning scheduler's lock.
	paused bool

	stats QueryStats
	now   func() time.Time
}

// QueryStats counts a query's runtime activity.
type QueryStats struct {
	Events        int64 // events offered
	PatternHits   int64 // pattern-level matches
	Matches       int64 // completed multievent matches
	WindowsClosed int64
	Alerts        int64
	Suppressed    int64 // alerts dropped by `return distinct`
	EvalErrors    int64
	StateBytes    int64 // serialized live-state estimate (see Query.StateBytes)
	// LateHits counts pattern hits that folded into nothing because a
	// window containing them had already closed: the stream's disorder
	// exceeded what the window tolerates, and that state is lost.
	LateHits int64
	// PartialsExpired and PartialsDropped count a multievent rule query's
	// partial matches lost before they completed: expired past the match
	// horizon, and refused because MaxPartials were already live. Either
	// loss can hide a detection.
	PartialsExpired int64
	PartialsDropped int64
}

// groupRuntime is the persistent per-group state across windows.
type groupRuntime struct {
	key         string
	history     *window.History
	inv         *invariant.State
	idleWindows int
	// closedSeq is the query's WindowsClosed count at the last close this
	// group was present in: how a close tells present groups from quiet ones
	// without a lookup per known group.
	closedSeq int64
}

// The close-time clauses that carry more than a program: an invariant update
// with the declaration index of the variable it assigns, and a return item
// with its display name — the alias, or the item as written (the paper's
// context-aware shortcut: p1, short for p1.exe_name, is displayed as "p1").
type (
	invUpdate struct {
		slot int
		prog *pcode.Prog
	}
	returnItem struct {
		name string
		prog *pcode.Prog
	}
)

// patternSlots names the binding slots one pattern's hits write; -1 where
// the pattern leaves the subject, object or event unnamed.
type patternSlots struct{ subj, obj, alias int }

// Compile parses, checks, and compiles SAQL source into an executable query.
func Compile(name, src string, opts CompileOptions) (*Query, error) {
	q, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	q.Name = name
	return CompileAST(name, q, opts)
}

// CompileAST checks and compiles a parsed query.
func CompileAST(name string, q *ast.Query, opts CompileOptions) (*Query, error) {
	info, err := sema.Check(q)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	cq := &Query{
		Name:   name,
		AST:    q,
		Info:   info,
		opts:   opts,
		global: pcode.CompileGlobals(q.Globals, opts.Fallbacks),
		now:    time.Now, //saql:wallclock injectable clock default; feeds Alert.Detected only, never evaluation
		groups: map[string]*groupRuntime{},
	}
	if q.Return != nil && q.Return.Distinct {
		cq.distinct = map[string]struct{}{}
	}

	// Compile patterns.
	for i, p := range q.Patterns {
		cq.patterns = append(cq.patterns, matcher.Compile(i, p, opts.Fallbacks))
	}

	cq.stateful = q.State != nil
	if !cq.stateful {
		// Rule-based query: build the sequence matcher.
		var order []int
		if q.Temporal != nil {
			for _, alias := range q.Temporal.Order {
				order = append(order, info.Aliases[alias])
			}
		}
		horizon := opts.MatchHorizon
		if horizon == 0 && q.Window != nil {
			horizon = q.Window.Length
		}
		seq, err := matcher.NewSeqMatcher(cq.patterns, cq.global, order, matcher.Config{
			Horizon:     horizon,
			MaxPartials: opts.MaxPartials,
		})
		if err != nil {
			return nil, err
		}
		cq.seq = seq
		cq.Kind = KindRule
		// A completed match binds entity variables at the matcher's slots and
		// each alias's event at its pattern's index.
		cq.compileClose(
			func(name string) int { return slices.Index(seq.Vars(), name) },
			func(alias string) int { return info.Aliases[alias] })
		return cq, nil
	}

	// Stateful query: window manager and aggregation plumbing.
	spec := window.Spec{Length: q.Window.Length, Hop: q.Window.Hop}
	fields := make([]window.FieldSpec, 0, len(q.State.Fields))
	for _, f := range q.State.Fields {
		call := f.Expr.(*ast.CallExpr) // guaranteed by sema
		fs := window.FieldSpec{Name: f.Name, AggName: call.Func}
		for _, extra := range call.Args[1:] {
			fs.AggParams = append(fs.AggParams, extra.(*ast.Literal).Val)
		}
		fields = append(fields, fs)
	}
	mgr, err := window.NewManager(spec, fields)
	if err != nil {
		return nil, err
	}
	cq.winMgr = mgr
	cq.assignSlots()
	cq.groupBy = q.State.GroupBy
	// One scope per pattern serves its group-by items and its arguments.
	nkeys := len(cq.groupBy)
	for _, progs := range cq.compilePerPattern(slices.Concat(cq.groupBy, aggArgs(q, info))) {
		cq.keyProgs = append(cq.keyProgs, progs[:nkeys:nkeys])
		cq.argProgs = append(cq.argProgs, progs[nkeys:])
	}

	cq.historyLen = q.State.History
	if cq.historyLen < info.MaxStateIndex+1 {
		cq.historyLen = info.MaxStateIndex + 1
	}

	if q.Invariant != nil {
		cq.hasInv = true
		mode := invariant.Offline
		if !q.Invariant.Offline {
			mode = invariant.Online
		}
		cq.invSpec = invariant.Spec{TrainWindows: q.Invariant.TrainWindows, Mode: mode, Vars: info.InvariantVars}
		// Initial values are literals, in the declaration order sema recorded.
		for _, st := range q.Invariant.Inits {
			lit, ok := st.Expr.(*ast.Literal)
			if !ok {
				return nil, fmt.Errorf("engine: invariant init %q must be a literal (e.g. empty_set)", st.Var)
			}
			cq.invInits = append(cq.invInits, lit.Val)
		}
	}

	if q.Cluster != nil {
		cq.hasCluster = true
		dist, err := cluster.ByName(q.Cluster.Distance)
		if err != nil {
			return nil, err
		}
		cq.clusterDist = dist
		cq.clusterName = info.ClusterMethod
		cq.clusterArgs = info.ClusterParams
	}

	cq.compileClose(mgr.EntitySlot, mgr.EventSlot)

	cq.idleLimit = opts.GroupIdleWindows
	if cq.idleLimit <= 0 {
		cq.idleLimit = cq.historyLen + 8
		if cq.hasInv && cq.invSpec.TrainWindows+8 > cq.idleLimit {
			cq.idleLimit = cq.invSpec.TrainWindows + 8
		}
	}

	switch {
	case cq.hasCluster:
		cq.Kind = KindOutlier
	case cq.hasInv:
		cq.Kind = KindInvariant
	case info.MaxStateIndex > 0 || q.State.History > 1:
		cq.Kind = KindTimeSeries
	default:
		cq.Kind = KindStateful
	}
	return cq, nil
}

// assignSlots resolves every pattern's variable names to the window
// manager's binding slots, so the fold path indexes a group's bindings
// instead of probing them by name. Patterns sharing a name share its slot.
func (q *Query) assignSlots() {
	q.slots = make([]patternSlots, len(q.patterns))
	for i, p := range q.patterns {
		s := patternSlots{subj: -1, obj: -1, alias: -1}
		if p.SubjVar != "" {
			s.subj = q.winMgr.EntitySlot(p.SubjVar)
		}
		if p.ObjVar != "" {
			s.obj = q.winMgr.EntitySlot(p.ObjVar)
		}
		if p.Alias != "" {
			s.alias = q.winMgr.EventSlot(p.Alias)
		}
		q.slots[i] = s
	}
}

// compileClose compiles what a completed match or a closed window evaluates
// (close.go) in the close scope: entity variables and event aliases at the
// binding slots the matcher or the window manager gives them and, for a
// stateful query, window state, invariant variables and the clustering outcome.
func (q *Query) compileClose(entitySlot, eventSlot func(string) int) {
	scope := &pcode.Scope{Vars: q.Info.InvariantVars, Cluster: q.hasCluster}
	for name, typ := range q.Info.EntityVars {
		scope.Entities = append(scope.Entities, pcode.EntityVar{Name: name, Type: typ, Slot: entitySlot(name)})
	}
	for alias := range q.Info.Aliases {
		scope.Events = append(scope.Events, pcode.EventVar{Name: alias, Slot: eventSlot(alias)})
	}
	if q.stateful {
		scope.State, scope.Fields = q.AST.State.Name, q.Info.StateFields
	}
	for _, a := range q.AST.Alerts {
		q.alertProgs = append(q.alertProgs, q.compile(a, scope))
	}
	if q.AST.Return != nil {
		for _, item := range q.AST.Return.Items {
			name := item.Alias
			if name == "" {
				name = item.Expr.String()
			}
			q.returns = append(q.returns, returnItem{name: name, prog: q.compile(item.Expr, scope)})
		}
	}
	if q.hasCluster {
		q.pointProg = q.compile(q.AST.Cluster.Points, scope)
	}
	if q.hasInv {
		for _, st := range q.AST.Invariant.Updates {
			slot := slices.Index(q.Info.InvariantVars, st.Var) // declared: sema
			q.invUpdates = append(q.invUpdates, invUpdate{slot: slot, prog: q.compile(st.Expr, scope)})
		}
	}
}

// compile compiles e in scope and grows progStack to fit the program.
func (q *Query) compile(e ast.Expr, scope *pcode.Scope) *pcode.Prog {
	prog := pcode.CompileExpr(e, scope)
	if prog.Depth() > len(q.progStack) {
		q.progStack = make([]value.Value, prog.Depth())
	}
	return prog
}

// aggArgs returns the aggregation argument of each state field.
func aggArgs(q *ast.Query, info *sema.Info) []ast.Expr {
	args := make([]ast.Expr, len(q.State.Fields))
	for i, f := range q.State.Fields {
		args[i] = rewriteBareAlias(f.Expr.(*ast.CallExpr).Args[0], info) // a call with arguments: sema
	}
	return args
}

// compilePerPattern compiles each expression in each pattern's per-event
// scope: out[pattern][expression].
func (q *Query) compilePerPattern(exprs []ast.Expr) [][]*pcode.Prog {
	out := make([][]*pcode.Prog, len(q.AST.Patterns))
	for pi, p := range q.AST.Patterns {
		scope := pcode.Binding{
			SubjVar:  p.Subject.Var,
			ObjVar:   p.Object.Var,
			Alias:    p.Alias,
			SubjType: p.Subject.Type,
			ObjType:  p.Object.Type,
		}.Scope()
		out[pi] = make([]*pcode.Prog, len(exprs))
		for i, e := range exprs {
			out[pi][i] = q.compile(e, scope)
		}
	}
	return out
}

// rewriteBareAlias rewrites a bare event-alias argument (count(evt)) into
// the literal 1, so counting aggregators count occurrences.
func rewriteBareAlias(e ast.Expr, info *sema.Info) ast.Expr {
	if id, ok := e.(*ast.Ident); ok {
		if _, isAlias := info.Aliases[id.Name]; isAlias {
			return &ast.Literal{Val: value.Int(1), LitPos: id.Pos()}
		}
	}
	return e
}

// Stats returns a snapshot of the query's runtime counters, once its slice log
// has folded what it holds. Like every reader of the query's state it runs
// where the query is not ingesting: under its scheduler's lock, or on the
// shard that owns it.
func (q *Query) Stats() QueryStats {
	q.settle()
	st := q.stats
	if q.stateful {
		st.LateHits = q.winMgr.LateEvents
	} else {
		st.PartialsExpired, st.PartialsDropped = q.seq.Expired, q.seq.Dropped
	}
	return st
}

// AgentEq reports the agentid, folded by strings.ToLower, that the query's
// global constraints require of every event it matches (see
// pcode.EventProg.AgentEq); ok is false when they require none.
func (q *Query) AgentEq() (agent string, ok bool) { return q.global.AgentEq() }

// Patterns exposes the compiled event patterns (used by the scheduler to
// build dependent-query residual filters).
func (q *Query) Patterns() []*matcher.Pattern { return q.patterns }

// Stateful reports whether the query folds windowed state (as opposed to a
// rule query completing matches per event).
func (q *Query) Stateful() bool { return q.stateful }

// GroupCount reports how many groups currently hold state (stateful queries).
func (q *Query) GroupCount() int { return len(q.groups) }

// StateBytes estimates the query's live state footprint as the length of its
// serialized checkpoint state (EncodeState). It is an estimate — the codec's
// framing is compact but not the in-memory layout — yet it moves with the
// real state (partial matches, window history, distinct tables), which is
// what quota enforcement needs. Returns 0 when encoding fails.
func (q *Query) StateBytes() int64 {
	blob, err := q.EncodeState()
	if err != nil {
		return 0
	}
	return int64(len(blob))
}

// SetClock overrides the wall clock used for Alert.Detected (tests and the
// replayer's virtual time).
func (q *Query) SetClock(now func() time.Time) { q.now = now }
