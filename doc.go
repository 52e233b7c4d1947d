// Package saql is a stream-based query system for real-time abnormal system
// behavior detection over enterprise system monitoring data, reproducing the
// SAQL system of Gao et al. ("Querying Streaming System Monitoring Data for
// Enterprise System Anomaly Detection", ICDE 2020; USENIX Security 2018).
//
// SAQL ingests a real-time feed of system events — ⟨subject, operation,
// object⟩ interactions between processes, files, and network connections
// collected from enterprise hosts — and evaluates anomaly queries written in
// the Stream-based Anomaly Query Language against it. The language expresses
// four families of anomaly models:
//
//   - rule-based: multievent patterns with attribute constraints, entity
//     joins, and temporal ordering (`with evt1 -> evt2`);
//   - time-series: sliding-window states with history access (ss[0], ss[1])
//     for moving-average style detectors;
//   - invariant-based: invariants learned over training windows and
//     violated by unseen behaviour;
//   - outlier-based: peer comparison via clustering (DBSCAN) of per-group
//     window aggregates.
//
// # Quick start
//
// The engine is driven through the concurrent ingestion API: Start spins up
// the sharded runtime, Submit/SubmitBatch feed events through a bounded
// ingest queue, and Subscribe delivers the merged alert stream. Register
// returns the query's handle:
//
//	eng := saql.New(saql.WithShards(8))
//	h, err := eng.Register("exfil", `
//	    proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
//	    proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
//	    proc p4 read file f1 as evt3
//	    with evt1 -> evt2 -> evt3
//	    return distinct p1, p2, p3, f1, p4`)
//	if err := eng.Start(ctx); err != nil { ... }
//	sub := eng.Subscribe(256, saql.Block)
//	go func() {
//	    for alert := range sub.C {
//	        fmt.Println(alert)
//	    }
//	}()
//	eng.SubmitBatch(events) // from any number of goroutines
//	eng.Close()             // drain, flush, end subscriptions
//
// # Query lifecycle
//
// The *QueryHandle returned by Register owns one query's lifecycle while
// the engine keeps ingesting. Pause/Resume gate its event flow with all
// state retained; Update hot-swaps its source atomically at a consistent
// point of the event stream (with CarryWindowState preserving open windows,
// history rings, and invariant training when only thresholds or patterns
// changed); Subscribe opens a per-query alert stream; Close retires it.
// Every control operation is applied in the same total order as events on
// every shard, so a sharded engine under live reconfiguration remains
// alert-for-alert identical to a serial engine reconfigured between the
// same two events.
//
// On top of handles sits the declarative layer: ParseQuerySet parses a
// multi-query document (named `query` blocks plus shared `param`
// definitions substituted at compile time) and Engine.Apply reconciles it
// against the running registry — unchanged queries untouched, changed ones
// hot-swapped, absent managed ones retired — returning a ChangeReport.
// See docs/queries.md for the grammar and reconciliation rules.
//
// # Ingesting event streams
//
// Every event stream enters a running engine through a Source. Raw
// monitoring logs come from a log file (optionally followed like tail -f),
// standard input, an arbitrary io.Reader, or a TCP listener, decoded with a
// codec — "auditd" (Linux kernel audit records, with multi-record event
// reassembly), "sysmon" (Sysmon/ECS JSON lines), or "ndjson" (the native
// event schema); events that already exist come from a producer
// (NewEventSource) or from a store through the stream replayer
// (NewReplaySource). Whatever its kind, a source submits its events in
// time-ordered batches:
//
//	src, err := saql.OpenLogFile("audit.log",
//	    saql.WithFormat("auditd"), saql.WithSourceAgent("db-1"), saql.WithFollow())
//	if err != nil { ... }
//	err = src.Run(ctx, eng) // decode → batch → SubmitBatch, until ctx ends
//
// Run accepts any Submitter, not only an *Engine. Per-source counters
// (lines, events, decode errors, out-of-order accounting) are available
// from Source.Stats and, for an engine destination, aggregated into
// Engine.Stats. See docs/architecture.md for the pipeline design and
// docs/language.md for the query-language reference.
//
// # Engine lifecycle
//
// An Engine moves through three states. It is created in the serial state,
// where the synchronous Process/Flush methods evaluate queries on the
// caller's goroutine and return alerts directly (the serial reference: every
// started engine raises the same alerts for the same stream, whatever its
// shard count). Start moves it to the running state: ingestion
// happens through Submit/SubmitBatch, which wait for room when the bounded
// ingest queue is full (WithIngestQueue) — an accepted event is never
// dropped. The events the engine does refuse are those over a tenant's
// ingest-rate quota, counted in Stats.Dropped. Close drains the queue,
// closes all windows, delivers the final alerts, and ends every subscription
// (each subscription's Err then reports ErrClosed); Stats, QueryStats and
// Tenants keep reporting the final values. Misuse yields typed errors:
// ErrNotRunning, ErrAlreadyRunning, ErrClosed, and — for operations on a
// retired query handle — ErrQueryClosed.
//
// # Shard placement
//
// The running engine partitions query state across WithShards(n) workers
// (default GOMAXPROCS). Every started engine, at every shard count, runs
// one event path: a router establishes one total event order, evaluates
// each event's pattern hits once, and delivers the event only to the shards
// owning state for it, stamped with the stream watermark — so watermarks
// and window boundaries agree everywhere and sharded execution stays
// alert-for-alert equivalent to serial — while the expensive state folding
// is owned by exactly one shard:
//
//   - stateful queries with a group-by clause (time-series, invariant, and
//     plain aggregations) partition by group-by key: each key's windows,
//     history, and invariants live on the shard that hashes to it
//     (PlaceByGroup);
//   - stateless single-pattern rule queries partition by subject entity:
//     each event is folded on the one shard the router names its owner
//     (PlaceByEvent);
//   - queries whose semantics require the total event order in one place —
//     multievent rule queries (matches join events across entities),
//     outlier queries (clustering compares all groups of a window),
//     stateful queries without a group-by, and any `return distinct` query
//     (one global suppression table) — are pinned to a single home shard,
//     assigned round-robin (PlacePinned).
//
// QueryHandle.Placement reports the decision per query.
//
// Concurrent queries are scheduled with the master–dependent-query scheme:
// semantically compatible queries share one copy of the stream, with the
// weakest query (the master) performing pattern matching and dependents
// refining its intermediate results. On a started engine the scheme runs
// once, in the router, before delivery: each event's pattern hits are
// pre-evaluated, each hit's group-by key is evaluated once for all the
// queries whose key compiles to the same programs (a key class), and every
// shard is handed exactly the folds it owns, one per variant set of such
// queries — so shards skip pattern matching and key evaluation entirely and
// per-event matching work stays O(patterns) rather than O(shards ×
// patterns). A never-started engine runs the same code as one shard that
// owns all state: the router's evaluator on a batch of one event, its resolve
// step, and a shard's fold. A key then
// names its group by a dense integer id, resolved once per key class
// (Stats.GroupProbes) and indexed by every member. A master whose global
// constraints pin it to one agentid (`agentid = "db-1"`) runs only on that
// host's events: each event's agentid is looked up once in an index of the
// pinned masters. Stats.PatternEvals counts the predicates of the masters
// actually run, Stats.KeyEvals the keys evaluated (a failing key's error is
// derived once more, where it is reported); neither depends on the shard
// count.
//
// Everything a query evaluates is a compiled bytecode program
// (internal/pcode), and every query compiles to them: there is no
// interpreting fallback and no option selecting one. Pattern and global
// predicates, group-by keys and aggregation arguments run per event against
// the matched event; alert conditions, return items, invariant updates and
// clustering points run at a window close or on a completed multievent
// match, the same programs compiled in a scope where binding slots, window
// state, invariant variables and clustering outcomes live. The AST
// evaluator they replaced (internal/expr) is a test-only oracle.
//
// # Durable state
//
// The engine survives crashes and restarts without losing state or alerts.
// WithJournal(store) write-ahead-logs every ingested event into an embedded
// event store, in exactly the processing order; Engine.Checkpoint(dir)
// captures a consistent snapshot — registry, pause flags, labels, and every
// query's runtime state (open windows, aggregators, history rings,
// invariant training, partial multievent matches, distinct-suppression
// tables) — at a runtime control-queue barrier, riding the same total order
// as events and hot-swaps; and Open(dir) — the one way into a durable
// directory, whether it is empty, holds a journal whose run died before its
// first checkpoint, or holds a snapshot and a tail — rebuilds an equivalent
// engine (on any shard count) and replays the journaled tail from the
// snapshot's stream offset, so recovery is alert-for-alert identical to a
// run that was never interrupted. Restore(dir) is Open that insists on a
// snapshot (ErrNoCheckpoint without one). Unreadable snapshots fail with
// typed errors (*SnapshotVersionError, *SnapshotCorruptError), never with
// silently corrupted state. See docs/architecture.md, "Durable state".
//
// # Distributed operation
//
// The checkpoint substrate scales past one process. WithKeyRanges restricts
// an engine to contiguous ranges of the 32-bit FNV-1a ownership hash space
// (RestoreStateBlobs folds migrated state into a restored engine before it
// starts), and internal/dist builds the cluster on top: a coordinator owning
// the queryset and the stream, cmd/saql-worker nodes each running a normal
// engine over their own journal/checkpoint directory, and a framed wire
// protocol carrying events, control ops, alerts, and checkpoint barriers in
// one total order. Worker loss and live key-range rebalance both reduce to
// checkpoint/restore, and the cluster's merged alert stream stays
// alert-for-alert identical to one serial engine. Run a cluster with
// cmd/saql's -cluster flag; see docs/architecture.md, "Distributed
// operation".
//
// The module also ships the full demonstration substrate of the paper: a
// deterministic multi-host workload simulator (NewWorkload), the five-step
// APT kill-chain generator (AttackScenario), an embedded event store and
// stream replayer (OpenStore, NewReplayer). The paper's experiments E1–E8
// are the package's BenchmarkE1–E8 (go test -run '^$' -bench 'BenchmarkE[1-8]').
package saql
