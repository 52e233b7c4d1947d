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
	// queries (nil: the counts go nowhere anyone reads).
	Fallbacks *atomic.Int64
}

// Query is one replica of a compiled SAQL query: its program, immutable once
// CompileAST returns and shared by every Replica, and its own state. A replica
// is not safe for concurrent use (its scheduler or shard serialises delivery
// to it); replicas of one program may run on different goroutines at once.
type Query struct {
	*program
	seq      *matcher.SeqMatcher // rule queries: the partial matches
	winMgr   *window.Manager     // stateful queries: open windows, watermark
	groups   map[string]*groupRuntime
	distinct map[string]struct{} // `return distinct`'s suppression table
	// byKey lists the runtimes of groups in ascending key order: the order a
	// close evaluates its groups in, kept from close to close (pushSnapshots)
	// and rebuilt by a restore (sortGroups).
	byKey []*groupRuntime
	// log is the slice log the query's hits wait in until they fold: its
	// variant set's in the scheduler that holds it. Everything that reads or
	// hands over the query's state settles it first (settle).
	log *SliceLog
	// argCols[pattern][field] is the column of its log's program table that
	// holds the field's argument (SliceLog.tabulate).
	argCols [][]int32
	// Every program of the query runs against frame on progStack.
	frame     pcode.Frame
	progStack []value.Value
	// scratch is a window close's reused storage, made at the first close.
	scratch *closeScratch
	// paused gates event ingestion (see SetPaused). It is mutated only at
	// consistent stream points, under the owning scheduler's lock.
	paused bool
	stats  QueryStats
	now    func() time.Time
}

// program is what CompileAST builds: everything a replica reads and nothing it
// writes.
type program struct {
	Name string
	AST  *ast.Query
	Info *sema.Info
	Kind ModelKind

	opts CompileOptions

	// Pattern matching.
	patterns []*matcher.Pattern
	global   *pcode.EventProg
	emptySeq *matcher.SeqMatcher // rule queries: each replica's matcher is its Empty twin
	emptyMgr *window.Manager     // stateful queries: each replica's manager is its Empty twin

	// Stateful execution.
	stateful bool
	groupBy  []ast.Expr
	// keyProgs[pattern][item] and argProgs[pattern][field] are the group-by
	// items and aggregation arguments compiled against one pattern's
	// bindings: a hit reads its key and its arguments straight off the event.
	keyProgs [][]*pcode.Prog
	argProgs [][]*pcode.Prog
	depth    int // the operand stack the deepest of all its programs needs
	// slots[pattern] are the window manager's binding slots a hit of that
	// pattern writes into its group (see assignSlots).
	slots      []patternSlots
	historyLen int
	idleLimit  int

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
	StateBytes    int64 // length of the encoded live state (see Query.StateBytes)
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
	// group is the group of the window being closed, from the close's probe
	// to its key-order walk (pushSnapshots); nil between closes.
	group *window.Group
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
	if opts.MaxDistinct <= 0 {
		opts.MaxDistinct = 1 << 16
	}

	cq := &program{
		Name:   name,
		AST:    q,
		Info:   info,
		opts:   opts,
		global: pcode.CompileGlobals(q.Globals, opts.Fallbacks),
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
		seq, err := matcher.NewSeqMatcher(cq.patterns, order, matcher.Config{
			Horizon:     horizon,
			MaxPartials: opts.MaxPartials,
		})
		if err != nil {
			return nil, err
		}
		cq.emptySeq = seq
		cq.Kind = KindRule
		// A completed match binds entity variables at the matcher's slots and
		// each alias's event at its pattern's index.
		cq.compileClose(
			func(name string) int { return slices.Index(seq.Vars(), name) },
			func(alias string) int { return info.Aliases[alias] })
		return cq.replica(false), nil
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
	cq.emptyMgr = mgr
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
	return cq.replica(false), nil
}

// Replica returns a query over q's compiled program, without compiling: it is
// paused as q is, holds none of q's state and keeps no reference to q.
func (q *Query) Replica() *Query { return q.program.replica(q.paused) }

// replica builds fresh state over p.
func (p *program) replica(paused bool) *Query {
	q := &Query{
		program:   p,
		paused:    paused,
		groups:    map[string]*groupRuntime{},
		progStack: make([]value.Value, p.depth),
		now:       time.Now, //saql:wallclock injectable clock default; feeds Alert.Detected only, never evaluation
	}
	if p.stateful {
		q.winMgr = p.emptyMgr.Empty()
	} else {
		q.seq = p.emptySeq.Empty()
	}
	if p.AST.Return != nil && p.AST.Return.Distinct {
		q.distinct = map[string]struct{}{}
	}
	return q
}

// assignSlots resolves every pattern's variable names to the window
// manager's binding slots, so the fold path indexes a group's bindings
// instead of probing them by name. Patterns sharing a name share its slot.
func (p *program) assignSlots() {
	p.slots = make([]patternSlots, len(p.patterns))
	for i, pat := range p.patterns {
		s := patternSlots{subj: -1, obj: -1, alias: -1}
		if pat.SubjVar != "" {
			s.subj = p.emptyMgr.EntitySlot(pat.SubjVar)
		}
		if pat.ObjVar != "" {
			s.obj = p.emptyMgr.EntitySlot(pat.ObjVar)
		}
		if pat.Alias != "" {
			s.alias = p.emptyMgr.EventSlot(pat.Alias)
		}
		p.slots[i] = s
	}
}

// compileClose compiles what a completed match or a closed window evaluates
// (close.go) in the close scope: entity variables and event aliases at the
// binding slots the matcher or the window manager gives them and, for a
// stateful query, window state, invariant variables and the clustering outcome.
func (p *program) compileClose(entitySlot, eventSlot func(string) int) {
	scope := &pcode.Scope{Vars: p.Info.InvariantVars, Cluster: p.hasCluster}
	for name, typ := range p.Info.EntityVars {
		scope.Entities = append(scope.Entities, pcode.EntityVar{Name: name, Type: typ, Slot: entitySlot(name)})
	}
	for alias := range p.Info.Aliases {
		scope.Events = append(scope.Events, pcode.EventVar{Name: alias, Slot: eventSlot(alias)})
	}
	if p.stateful {
		scope.State, scope.Fields = p.AST.State.Name, p.Info.StateFields
	}
	for _, a := range p.AST.Alerts {
		p.alertProgs = append(p.alertProgs, p.compile(a, scope))
	}
	if p.AST.Return != nil {
		for _, item := range p.AST.Return.Items {
			name := item.Alias
			if name == "" {
				name = item.Expr.String()
			}
			p.returns = append(p.returns, returnItem{name: name, prog: p.compile(item.Expr, scope)})
		}
	}
	if p.hasCluster {
		p.pointProg = p.compile(p.AST.Cluster.Points, scope)
	}
	if p.hasInv {
		for _, st := range p.AST.Invariant.Updates {
			slot := slices.Index(p.Info.InvariantVars, st.Var) // declared: sema
			p.invUpdates = append(p.invUpdates, invUpdate{slot: slot, prog: p.compile(st.Expr, scope)})
		}
	}
}

// compile compiles e in scope and deepens the operand stack to fit it.
func (p *program) compile(e ast.Expr, scope *pcode.Scope) *pcode.Prog {
	prog := pcode.CompileExpr(e, scope)
	p.depth = max(p.depth, prog.Depth())
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
func (p *program) compilePerPattern(exprs []ast.Expr) [][]*pcode.Prog {
	out := make([][]*pcode.Prog, len(p.AST.Patterns))
	for pi, pat := range p.AST.Patterns {
		scope := pcode.Binding{
			SubjVar:  pat.Subject.Var,
			ObjVar:   pat.Object.Var,
			Alias:    pat.Alias,
			SubjType: pat.Subject.Type,
			ObjType:  pat.Object.Type,
		}.Scope()
		out[pi] = make([]*pcode.Prog, len(exprs))
		for i, e := range exprs {
			out[pi][i] = p.compile(e, scope)
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

// WindowSpec is a stateful query's window: its slices are where a hit opens
// the same windows as every other instant of the slice (window.Slice).
func (q *Query) WindowSpec() window.Spec { return q.winMgr.Spec() }

// GroupCount reports how many groups currently hold state (stateful queries).
func (q *Query) GroupCount() int { return len(q.groups) }

// StateBytes measures the query's live state footprint as the length of its
// serialized checkpoint state (EncodeState): not the in-memory layout, but it
// moves with the real state (partial matches, window history, distinct
// tables), which is what quota enforcement needs. Returns 0 when encoding
// fails.
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
