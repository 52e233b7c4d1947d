// Command saql is the command-line UI of the SAQL system (Figure 3 of the
// paper): it registers anomaly queries and executes them against a stream of
// system monitoring data, printing alerts in real time.
//
// The stream source is a real log file or socket decoded by a codec
// (-input with -format auditd|sysmon|ndjson), a stored dataset replayed
// through the stream replayer (-store, with -hosts/-from/-to/-speed
// selection), or a live simulation of the enterprise plus the APT attack
// (-simulate). Whichever it is, it is one saql.Source — batched (-batch),
// time-sorted within a batch, metered (-tenant) and counted the same way —
// run into one destination: the engine's sharded runtime (use -shards to
// size it), the serial reference path (-shards 0), or a cluster of
// saql-worker processes (-cluster).
//
// Queries come from -q files, -e inline text, the built-in demo set
// (-demo-queries), or a rule directory (-queries DIR): every *.saql file in
// the directory — a single query named after the file, or a queryset
// document with `query name { ... }` blocks and shared `param` definitions
// — is registered declaratively through Engine.Apply. Sending the process
// SIGHUP re-reads the directory and reconciles the running engine against
// it (changed queries hot-swap in place, removed files retire their
// queries), printing the change report.
//
// With -checkpoint-dir the engine is durable: every ingested event is
// journaled into the directory, a consistent snapshot of all query state is
// checkpointed there (periodically with -checkpoint-every, and always at
// shutdown), and a later start with the same flag restores the snapshot and
// replays the journaled tail, so a crash or restart loses no sliding-window
// history, invariant training, or in-flight multievent matches — and
// neither drops nor duplicates alerts. Recovery is exactly-once relative to
// the engine's own journal; pair it with a live feed (tcp://, -follow on a
// growing log) — restarting against the same static -input FILE re-reads
// the file from the top and re-delivers its events on top of the restored
// state.
//
// Usage:
//
//	saql -input audit.log -format auditd -agent db-1 -q exfil.saql
//	saql -input - -format ndjson -e 'proc p write file f["/etc/%"] return p, f'
//	saql -input tcp://:6514 -format sysmon -follow -queries ./rules
//	saql -input tcp://:6514 -format auditd -queries ./rules \
//	     -checkpoint-dir ./state -checkpoint-every 30s   # durable engine
//	saql -simulate -duration 10m -q query1.saql -q query2.saql
//	saql -store ./data -hosts db-1 -speed 100 -q exfil.saql
//	saql -simulate -demo-queries        # run the paper's 8 demo queries
//	saql -validate -queries ./rules     # parse/check only
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"saql"
	"saql/internal/admin"
)

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return // -h / -help: usage already printed, exit clean
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "saql:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("saql", flag.ContinueOnError)
	var (
		queryFiles  multiFlag
		inline      multiFlag
		hosts       multiFlag
		queriesDir  = fs.String("queries", "", "load every *.saql file in this directory via Engine.Apply; SIGHUP re-applies it")
		input       = fs.String("input", "", "read raw log events from this file ('-' = stdin, 'tcp://addr' = listen)")
		format      = fs.String("format", "ndjson", "log format for -input: "+strings.Join(saql.Formats(), ", "))
		agent       = fs.String("agent", "", "default agent id for -input events whose format carries no host field")
		follow      = fs.Bool("follow", false, "with -input FILE: keep tailing the file for appended records (tail -f)")
		strictOrder = fs.Bool("strict-order", false, "with -input: drop events that arrive too late to reorder (default: submit late)")
		storeDir    = fs.String("store", "", "replay events from this store directory")
		from        = fs.String("from", "", "replay start time (RFC3339)")
		to          = fs.String("to", "", "replay end time (RFC3339)")
		speed       = fs.Float64("speed", 0, "replay speed multiplier (0 = max)")
		simulate    = fs.Bool("simulate", false, "generate a live enterprise simulation with the APT attack")
		duration    = fs.Duration("duration", 10*time.Minute, "simulation duration")
		seed        = fs.Int64("seed", 42, "simulation seed")
		demoQueries = fs.Bool("demo-queries", false, "register the paper's 8 demonstration queries")
		window      = fs.Duration("window", 30*time.Second, "window length for demo queries")
		train       = fs.Int("train", 5, "invariant training windows for demo queries")
		noShare     = fs.Bool("no-share", false, "disable the master-dependent-query scheme")
		shards      = fs.Int("shards", -1, "shard workers for the concurrent runtime (-1 = GOMAXPROCS, 0 = serial reference path)")
		batch       = fs.Int("batch", 256, "events per submitted batch (also the reordering window)")
		validate    = fs.Bool("validate", false, "validate queries and exit")
		quiet       = fs.Bool("quiet", false, "suppress per-alert output, print only the summary")
		ckptDir     = fs.String("checkpoint-dir", "", "durable state directory: journal every event there, restore from its snapshot on start, checkpoint into it")
		ckptEvery   = fs.Duration("checkpoint-every", 0, "with -checkpoint-dir: also checkpoint periodically at this interval (0 = only at exit)")
		cluster     = fs.String("cluster", "", "comma-separated saql-worker addresses: run as the cluster coordinator instead of a local engine")
		adminAddr   = fs.String("admin-addr", "", "serve the admin API (saqlctl) on this address, e.g. 127.0.0.1:8471 (':0' picks a port)")
		srcTenant   = fs.String("tenant", "", "attribute the feed's events to this tenant (enables its ingest-rate quota)")
	)
	fs.Var(&queryFiles, "q", "SAQL query file (repeatable)")
	fs.Var(&inline, "e", "inline SAQL query text (repeatable)")
	fs.Var(&hosts, "hosts", "replay only these agent ids (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scenario := &saql.AttackScenario{
		Workstation: "ws-victim", MailServer: "mail-1", DBServer: "db-1",
		AttackerIP: "172.16.0.129",
	}
	// loadSet assembles the full declarative query set: -q files and -e
	// inline text (each a one-query set), the demo queries, and every
	// *.saql file of -queries. It is re-invoked on SIGHUP, so each call
	// re-reads every file.
	loadSet := func() (*saql.QuerySet, error) {
		set := saql.NewQuerySet()
		for _, f := range queryFiles {
			// -q names keep the path (minus extension) so equal basenames
			// from different directories stay distinct.
			if err := mergeQueryFile(set, f, strings.TrimSuffix(f, ".saql")); err != nil {
				return nil, err
			}
		}
		for i, src := range inline {
			if err := set.Add(fmt.Sprintf("inline-%d", i+1), src); err != nil {
				return nil, err
			}
		}
		if *demoQueries {
			for _, nq := range scenario.DemoQueries(*window, *train) {
				if err := set.Add(nq.Name, nq.SAQL); err != nil {
					return nil, err
				}
			}
		}
		if *queriesDir != "" {
			dir, err := loadQueryDir(*queriesDir)
			if err != nil {
				return nil, err
			}
			if err := set.Merge(dir); err != nil {
				return nil, err
			}
		}
		return set, nil
	}
	set, err := loadSet()
	if err != nil {
		return err
	}
	if set.Len() == 0 {
		return fmt.Errorf("no queries given (use -q, -e, -queries, or -demo-queries)")
	}

	if *validate {
		// loadSet already parsed and checked everything.
		for _, name := range set.Names() {
			fmt.Fprintf(out, "%-40s OK\n", name)
		}
		return nil
	}

	sharded := *shards != 0
	if *srcTenant != "" && (*cluster != "" || !sharded) {
		return fmt.Errorf("-tenant is metered by a started local engine (drop -cluster / -shards 0)")
	}

	// One feed: whichever flag names it, the event stream is one source.
	srcOpts := []saql.SourceOption{saql.WithBatchSize(*batch)}
	if *srcTenant != "" {
		srcOpts = append(srcOpts, saql.WithSourceTenant(*srcTenant))
	}
	var src *saql.Source
	switch {
	case *input != "":
		src, err = openInput(*input, *format, *agent, *follow, *strictOrder, srcOpts)
	case *storeDir != "":
		src, err = openReplay(*storeDir, hosts, *from, *to, *speed, srcOpts)
	case *simulate:
		src, err = openSimulation(scenario, *duration, *seed, srcOpts)
	default:
		err = fmt.Errorf("no event source: use -input, -store, or -simulate")
	}
	if err != nil {
		return err
	}

	// Alert printing runs on runtime goroutines, concurrently with this
	// one's progress lines, the SIGHUP reload goroutine's reports and a
	// coordinator's log, so writes to out share a mutex while an engine or a
	// coordinator is live.
	var outMu sync.Mutex
	say := func(format string, a ...any) {
		outMu.Lock()
		defer outMu.Unlock()
		fmt.Fprintf(out, format, a...)
	}
	// drive runs the feed into the run's one destination. Live feeds
	// (-follow, tcp://, a paced replay) run until interrupted; SIGTERM/SIGINT
	// ends the source cleanly, so everything already ingested still drains,
	// flushes its open windows and lands in the final checkpoint.
	drive := func(dst saql.Submitter) error {
		if a := src.Addr(); a != nil {
			say("listening on %s (%s)\n", a, *format)
		}
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
		err := src.Run(ctx, dst)
		if ctx.Err() != nil {
			say("interrupted: stopping %s after %d events\n", src, src.Stats().Events)
			return nil
		}
		return err
	}

	if *cluster != "" {
		return runCluster(clusterParams{
			addrs:     strings.Split(*cluster, ","),
			set:       set,
			quiet:     *quiet,
			ckptEvery: *ckptEvery,
			src:       src,
			drive:     drive,
			say:       say,
		})
	}

	// The alert handler is invoked serially in both the sharded runtime and
	// the serial path, so the counter needs no synchronisation.
	var alertCount int
	engOpts := []saql.Option{
		saql.WithSharing(!*noShare),
		saql.WithAlertHandler(func(a *saql.Alert) {
			alertCount++
			if !*quiet {
				say("%s\n", a)
			}
		}),
	}
	if *shards > 0 {
		engOpts = append(engOpts, saql.WithShards(*shards))
	}

	// Durable state: -checkpoint-dir is entered through saql.Open whatever
	// it holds — a snapshot is restored, a fresh directory becomes the event
	// journal, a journal without a snapshot (the previous run died before
	// its first checkpoint) is kept for replay. Either way the engine
	// journals and checkpoints back into the same directory. Unreadable
	// snapshots (version mismatch, corruption) fail loudly — silently
	// starting from zero would discard trained state.
	var eng *saql.Engine
	var opened *saql.RestoreInfo
	if *ckptDir != "" {
		ropts := []saql.RestoreOption{saql.WithRestoreEngineOptions(engOpts...), saql.WithoutReplay()}
		if !sharded {
			ropts = append(ropts, saql.WithoutStart())
		}
		if eng, opened, err = saql.Open(*ckptDir, ropts...); err != nil {
			return err
		}
	} else {
		eng = saql.New(engOpts...)
		if sharded {
			if err := eng.Start(context.Background()); err != nil {
				return err
			}
		}
	}
	if rep, err := eng.Apply(context.Background(), set); err != nil {
		return err
	} else if !rep.Empty() {
		say("applied query set: %s\n", rep)
	}
	say("registered %d queries in %d scheduler groups\n", eng.Stats().Queries, eng.Stats().QueryGroups)
	if sharded {
		say("concurrent runtime: %d shards\n", eng.Shards())
		for _, name := range set.Names() {
			if h, ok := eng.Query(name); ok {
				say("  %-40s placement=%s\n", name, h.Placement())
			}
		}
	}

	// The journaled tail past the snapshot (every record, when there is no
	// snapshot) is replayed under the applied query set and ahead of the
	// live feed in the total order, so no alert is lost or duplicated.
	if opened != nil {
		n, err := eng.ReplayJournal(opened.Offset)
		if err != nil {
			return err
		}
		if !opened.TakenAt.IsZero() {
			say("restored %d queries from %s (offset %d, %d journaled events replayed)\n",
				opened.Queries, *ckptDir, opened.Offset, n)
		} else if n > 0 {
			say("replayed %d journaled events from a run with no checkpoint\n", n)
		}
	}

	// The admin API serves the saqlctl DSL (list/get/pause/resume/update/
	// apply/quota) against this engine for the lifetime of the run.
	if *adminAddr != "" {
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return err
		}
		adminSrv := &http.Server{Handler: admin.NewServer(eng).Handler()}
		go func() { _ = adminSrv.Serve(ln) }()
		defer adminSrv.Close()
		say("admin API listening on %s\n", ln.Addr())
	}

	// Periodic checkpoints ride alongside ingestion; the final checkpoint
	// before shutdown is taken unconditionally. The deferred stop joins the
	// ticker goroutine on every exit path, including early error returns.
	ckptStop := make(chan struct{})
	ckptDone := make(chan struct{})
	if *ckptDir != "" && *ckptEvery > 0 {
		go func() {
			defer close(ckptDone)
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-ckptStop:
					return
				case <-tick.C:
					if _, err := eng.Checkpoint(*ckptDir); err != nil {
						fmt.Fprintln(os.Stderr, "saql: checkpoint:", err)
					}
				}
			}
		}()
	} else {
		close(ckptDone)
	}
	var ckptStopOnce sync.Once
	stopCkpt := func() {
		ckptStopOnce.Do(func() {
			close(ckptStop)
			<-ckptDone
		})
	}
	defer stopCkpt()

	// SIGHUP reconciles the running engine against a re-read of the query
	// files: changed sources hot-swap in place (carrying window state when
	// the state layer is unchanged), new files register, deleted files
	// retire their queries. The reloader is joined before the engine closes
	// and the summary prints, so no Apply can hit a closed engine and no
	// reload report interleaves with the summary.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	reloadStop := make(chan struct{})
	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		for {
			select {
			case <-reloadStop:
				return
			case <-hup:
			}
			next, err := loadSet()
			if err != nil {
				fmt.Fprintln(os.Stderr, "saql: reload:", err)
				continue
			}
			rep, err := eng.Apply(context.Background(), next)
			if err != nil {
				fmt.Fprintln(os.Stderr, "saql: re-apply:", err)
				continue
			}
			say("reloaded queries: %s\n", rep)
		}
	}()
	var reloadStopOnce sync.Once
	stopReloader := func() {
		reloadStopOnce.Do(func() {
			signal.Stop(hup)
			close(reloadStop)
			<-reloadDone
		})
	}
	defer stopReloader()

	started := time.Now()
	var dst saql.Submitter = eng
	if !sharded {
		dst = serialEngine{eng}
	}
	if err := drive(dst); err != nil {
		return err
	}
	logStats := src.Stats()
	events := logStats.Events

	// Ingestion is over: join the reloader and the periodic checkpointer,
	// take the final checkpoint, then close the engine and print the
	// summary.
	stopReloader()
	stopCkpt()
	// End-of-input flush happens BEFORE the final checkpoint: shutdown
	// treats the input's end as end-of-stream, so the snapshot must record
	// the post-flush state — restoring it must not re-raise the alerts the
	// flush already emitted.
	eng.Flush()
	if *ckptDir != "" {
		if info, err := eng.Checkpoint(*ckptDir); err != nil {
			fmt.Fprintln(os.Stderr, "saql: final checkpoint:", err)
		} else {
			say("checkpoint written: %s (offset %d, %d queries)\n", info.Path, info.Offset, info.Queries)
		}
	}
	// Close on both paths: it drains the (already empty) queue, ends
	// subscriptions, joins the workers, and seals + syncs the journal store
	// so the checkpoint directory is left fully durable and indexed.
	if err := eng.Close(); err != nil {
		return err
	}

	wall := time.Since(started)
	st := eng.Stats()
	fmt.Fprintf(out, "\n--- summary ---\n")
	fmt.Fprintf(out, "events processed : %d in %d batches (%.0f events/s)\n", events, logStats.Batches, float64(events)/wall.Seconds())
	fmt.Fprintf(out, "alerts raised    : %d\n", alertCount)
	fmt.Fprintf(out, "stream copies    : %d (naive per-query: %d, sharing ratio %.2fx)\n",
		st.StreamCopies, st.NaiveCopies, st.SharingRatio)
	fmt.Fprintf(out, "pattern evals    : %d (naive per-query: %d)\n",
		st.PatternEvals, st.NaivePatternEvals)
	fmt.Fprintf(out, "symbol dict      : %d entries (%d hits, %d misses, %d string fallbacks)\n",
		st.SymbolEntries, st.SymbolHits, st.SymbolMisses, st.SymbolFallbacks)
	if *input != "" {
		fmt.Fprintf(out, "log lines read   : %d (%d undecodable, %d reordered, %d dropped out-of-order)\n",
			logStats.Lines, logStats.DecodeErrors, logStats.Reordered, logStats.Dropped)
	}
	if ts, ok := eng.TenantStats(*srcTenant); ok && ts.EventsThrottled > 0 {
		fmt.Fprintf(out, "events throttled : %d (tenant %s ingest-rate quota)\n", ts.EventsThrottled, ts.Name)
	}
	if n := eng.ErrorCount(); n > 0 {
		fmt.Fprintf(out, "runtime errors   : %d (last: %v)\n", n, eng.Errors()[len(eng.Errors())-1])
	}
	return nil
}

// serialEngine is the -shards 0 destination: a never-started engine driven
// on the source's goroutine, the serial reference every other path is held
// to.
type serialEngine struct{ eng *saql.Engine }

func (s serialEngine) SubmitBatch(evs []*saql.Event) error {
	for _, ev := range evs {
		s.eng.Process(ev)
	}
	return nil
}

// openSimulation builds the -simulate source over the generated dataset.
func openSimulation(scenario *saql.AttackScenario, duration time.Duration, seed int64, opts []saql.SourceOption) (*saql.Source, error) {
	all, err := simulationEvents(scenario, duration, seed)
	if err != nil {
		return nil, err
	}
	return saql.NewEventSource("simulation", func(_ context.Context, emit func(*saql.Event) error) error {
		for _, ev := range all {
			if err := emit(ev); err != nil {
				return err
			}
		}
		return nil
	}, opts...), nil
}

// openReplay builds the -store source: the stream replayer over the store's
// selected hosts and time range, paced by -speed.
func openReplay(dir string, hosts []string, from, to string, speed float64, opts []saql.SourceOption) (*saql.Source, error) {
	sel := saql.ReplayOptions{Hosts: hosts, Speed: speed}
	var err error
	if sel.From, err = parseBound("-from", from); err != nil {
		return nil, err
	}
	if sel.To, err = parseBound("-to", to); err != nil {
		return nil, err
	}
	store, err := saql.OpenStore(dir, saql.StoreOptions{})
	if err != nil {
		return nil, err
	}
	return saql.NewReplaySource(saql.NewReplayer(store), sel, opts...), nil
}

// parseBound parses a replay time bound; empty means unbounded.
func parseBound(flag, val string) (t time.Time, err error) {
	if val != "" {
		if t, err = time.Parse(time.RFC3339, val); err != nil {
			err = fmt.Errorf("bad %s: %w", flag, err)
		}
	}
	return t, err
}

// simulationEvents generates the -simulate dataset: the enterprise
// workload with the APT attack spliced in, sorted by event time.
func simulationEvents(scenario *saql.AttackScenario, duration time.Duration, seed int64) ([]*saql.Event, error) {
	start := time.Now().UTC().Truncate(time.Minute)
	wl, err := saql.NewWorkload(saql.WorkloadConfig{
		Hosts: []saql.Host{
			{AgentID: "ws-victim", Kind: saql.Workstation},
			{AgentID: "ws-2", Kind: saql.Workstation},
			{AgentID: "mail-1", Kind: saql.MailServer},
			{AgentID: "web-1", Kind: saql.WebServer},
			{AgentID: "db-1", Kind: saql.DBServer},
		},
		Start: start, Duration: duration, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	scenario.Start = start.Add(duration / 3)
	all := wl.Drain()
	all = append(all, saql.AttackEventsOnly(scenario.Events())...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time.Before(all[j].Time) })
	return all, nil
}

// mergeQueryFile reads one rule file and merges its queries into set: a
// bare-query file contributes one query named name, a queryset document
// contributes all of its declared queries. Parse and duplicate errors are
// wrapped with the file's path.
func mergeQueryFile(set *saql.QuerySet, path, name string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	one, err := saql.ParseQueryOrSet(name, string(data))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := set.Merge(one); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadQueryDir builds a queryset from every *.saql file in dir (sorted, so
// pinned-placement assignment is deterministic across reloads).
func loadQueryDir(dir string) (*saql.QuerySet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".saql") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	set := saql.NewQuerySet()
	for _, name := range names {
		if err := mergeQueryFile(set, filepath.Join(dir, name), strings.TrimSuffix(name, ".saql")); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// openInput builds the log source for -input: "-" reads stdin, a tcp://
// address listens for connections, anything else opens a file.
func openInput(input, format, agent string, follow, strictOrder bool, opts []saql.SourceOption) (*saql.Source, error) {
	opts = append(opts, saql.WithFormat(format))
	if agent != "" {
		opts = append(opts, saql.WithSourceAgent(agent))
	}
	if strictOrder {
		opts = append(opts, saql.WithStrictOrder())
	}
	if addr, ok := strings.CutPrefix(input, "tcp://"); ok {
		return saql.ListenTCP(addr, opts...)
	}
	if follow {
		opts = append(opts, saql.WithFollow())
	}
	return saql.OpenLogFile(input, opts...)
}
