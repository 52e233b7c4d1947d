package dist

// Coordinator: the cluster's single dispatch point. It owns the queryset
// model and the range map, broadcasts ONE total order of event batches and
// control operations to every worker (every worker sees every event — only
// ownership differs, which is what keeps the cluster alert-for-alert equal
// to a serial engine), and drives the recovery machinery: checkpoint
// barriers, epoch retention, worker replacement, and live key-range
// migration.
//
// Concurrency model: one dispatch mutex (mu) serialises every outbound
// frame and every membership change, so the broadcast order IS the total
// order and no post-barrier frame can exist until the barrier's acks are
// in. Each worker connection has one reader goroutine that delivers alert
// frames (through the dedup window, under amu) and routes everything else
// to the worker's ack channel. Because a worker flushes its alerts before
// writing any ack and the reader handles frames in order, an ack observed
// by the dispatcher proves that worker's pre-ack alerts have already been
// delivered — the ordering fact the barrier's dedup-window trim and the
// replacement's suppression window both rest on.
//
// Failure model: a read error, write error, worker-reported fault, or lease
// expiry marks the worker dead; its key ranges are NOT reassigned — events
// keep flowing to the survivors and into the retained epoch until
// ReplaceWorker hands the dead worker's directory to a fresh process, which
// restores the last barrier's snapshot, replays its own journaled tail, and
// receives the retained remainder. Control operations and barriers refuse
// to run while any worker is dead (a barrier the dead worker missed would
// trim exactly the epoch its replacement needs).

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"saql"
)

// Coordinator errors.
var (
	// ErrCoordinatorClosed is returned by operations on a closed coordinator.
	ErrCoordinatorClosed = errors.New("dist: coordinator closed")
	// ErrLeaseExpired marks a worker dead because its heartbeat lease ran out.
	ErrLeaseExpired = errors.New("dist: heartbeat lease expired")
)

// Config configures a Coordinator.
type Config struct {
	// OnAlert receives every cluster alert exactly once, serially.
	// It must not call back into the Coordinator.
	OnAlert func(*saql.Alert)
	// Lease is the heartbeat lease: a worker silent for longer is declared
	// dead by ExpireLeases. Zero disables lease expiry.
	Lease time.Duration
	// AckTimeout bounds each wait for a worker acknowledgement (default 30s).
	AckTimeout time.Duration
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

// queryModel is the coordinator's record of one registered query.
type queryModel struct {
	src    string
	paused bool
}

// retainedBatch is one event batch kept since the last completed barrier.
type retainedBatch struct {
	start int64
	evs   []*saql.Event
}

// workerState is the coordinator's view of one worker connection.
type workerState struct {
	id     string
	conn   net.Conn
	ranges []saql.KeyRange

	acks       chan Frame // non-alert worker frames, routed by the reader
	readerDone chan struct{}
	dead       atomic.Bool
	failure    atomic.Value // error
	lastSeen   atomic.Int64 // unix nanos of the last frame read

	// delivered counts, per alert identity, the alerts this logical worker
	// has delivered to OnAlert since the epoch's base barrier; suppress
	// counts deliveries still owed to a predecessor's replay. Both are
	// guarded by Coordinator.amu and cleared when a barrier completes.
	delivered map[string]int
	suppress  map[string]int
}

// Coordinator drives a worker cluster. Create with NewCoordinator, add
// workers with AddWorker, then feed events with Submit and manage the
// queryset with Register/Update/Pause/Resume/Remove. All methods are safe
// for concurrent use; operations serialise on the dispatch mutex.
type Coordinator struct {
	cfg Config

	mu        sync.Mutex // dispatch mutex: all sends + membership
	closed    bool
	closing   atomic.Bool // set by Close before conns drop: EOF is expected
	workers   map[string]*workerState
	order     []string // sorted worker ids
	queries   map[string]*queryModel
	offset    int64           // next stream offset
	epochBase int64           // offset of the last completed barrier
	epoch     []retainedBatch // batches since epochBase

	amu   sync.Mutex // alert dedup windows + serial OnAlert delivery
	nonce uint64
}

// NewCoordinator creates a coordinator with no workers.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 30 * time.Second
	}
	return &Coordinator{
		cfg:     cfg,
		workers: map[string]*workerState{},
		queries: map[string]*queryModel{},
	}
}

// ---------------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------------

// AddWorker admits a worker into a fresh cluster (no events submitted, no
// queries registered — growing a live cluster is a migration composition,
// not an admission). The connection must have a Worker serving its far end;
// the handshake assigns id and ranges and verifies the worker starts at
// offset 0.
func (c *Coordinator) AddWorker(id string, conn net.Conn, ranges []saql.KeyRange) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrCoordinatorClosed
	}
	if c.offset != 0 || len(c.queries) != 0 {
		return errors.New("dist: AddWorker on a non-fresh cluster")
	}
	if _, ok := c.workers[id]; ok {
		return fmt.Errorf("dist: worker %q already exists", id)
	}
	ranges = NormalizeRanges(ranges)
	if len(ranges) == 0 {
		return errors.New("dist: worker needs at least one key range")
	}
	ws := c.newWorkerState(id, conn, ranges)
	rm := c.rangeMapLocked()
	rm[id] = ranges
	off, err := c.handshake(ws, rm)
	if err != nil {
		_ = conn.Close()
		<-ws.readerDone
		return err
	}
	if off != 0 {
		_ = conn.Close()
		<-ws.readerDone
		return fmt.Errorf("dist: worker %q joins fresh cluster at offset %d (stale directory?)", id, off)
	}
	c.workers[id] = ws
	c.order = append(c.order, id)
	sort.Strings(c.order)
	return nil
}

// newWorkerState builds the connection state and starts its reader.
func (c *Coordinator) newWorkerState(id string, conn net.Conn, ranges []saql.KeyRange) *workerState {
	ws := &workerState{
		id:         id,
		conn:       conn,
		ranges:     ranges,
		acks:       make(chan Frame, 16),
		readerDone: make(chan struct{}),
		delivered:  map[string]int{},
		suppress:   map[string]int{},
	}
	ws.lastSeen.Store(time.Now().UnixNano()) //saql:wallclock lease heartbeat baseline
	go c.readLoop(ws)
	return ws
}

// handshake sends hello and waits for the worker's stream position.
func (c *Coordinator) handshake(ws *workerState, rm map[string][]saql.KeyRange) (int64, error) {
	hello := EncodeHello(&Hello{WorkerID: ws.id, Ranges: rm})
	if err := WriteFrame(ws.conn, Frame{Type: FrameHello, Payload: hello}); err != nil {
		return 0, fmt.Errorf("dist: hello to %q: %w", ws.id, err)
	}
	f, err := c.awaitAck(ws, FrameHelloAck)
	if err != nil {
		return 0, err
	}
	return DecodeOffset(f.Payload)
}

// readLoop is the per-worker reader: alerts are delivered through the dedup
// window, faults mark the worker dead, everything else is an ack for the
// dispatcher.
//
//saql:codecpair-ignore frame dispatcher, not a codec half; each DecodeX it calls is paired individually
func (c *Coordinator) readLoop(ws *workerState) {
	defer close(ws.readerDone)
	for {
		f, err := ReadFrame(ws.conn)
		if err != nil {
			c.markDead(ws, err)
			return
		}
		ws.lastSeen.Store(time.Now().UnixNano()) //saql:wallclock lease heartbeat
		switch f.Type {
		case FrameAlerts:
			alerts, err := DecodeAlerts(f.Payload)
			if err != nil {
				c.markDead(ws, err)
				return
			}
			c.deliverAlerts(ws, alerts)
		case FrameHeartbeatAck:
			// lastSeen already renewed; nothing else to do.
		case FrameError:
			msg, _ := DecodeErrorFrame(f.Payload)
			c.markDead(ws, fmt.Errorf("dist: worker fault: %s", msg))
			return
		default:
			select {
			case ws.acks <- f:
			default:
				// An ack nobody is waiting for (e.g. it raced a timeout).
				c.cfg.Logf("coordinator: dropping unawaited %s from %s", f.Type, ws.id)
			}
		}
	}
}

// deliverAlerts runs one worker's alert batch through its dedup window.
// Suppressed alerts were already delivered by the worker's predecessor in
// this epoch; everything else goes to OnAlert (serially, under amu) and is
// recorded so a later replacement's replay can be suppressed in turn.
func (c *Coordinator) deliverAlerts(ws *workerState, alerts []*saql.Alert) {
	c.amu.Lock()
	defer c.amu.Unlock()
	for _, a := range alerts {
		k := AlertIdentity(a)
		if ws.suppress[k] > 0 {
			ws.suppress[k]--
			continue
		}
		ws.delivered[k]++
		if c.cfg.OnAlert != nil {
			c.cfg.OnAlert(a)
		}
	}
}

func (c *Coordinator) markDead(ws *workerState, err error) {
	if ws.dead.CompareAndSwap(false, true) {
		ws.failure.Store(err)
		// Readers observe EOF when Close tears the connections down after
		// the shutdown handshake; that is teardown, not a worker death.
		if !c.closing.Load() {
			c.cfg.Logf("coordinator: worker %s dead: %v", ws.id, err)
		}
	}
}

// requireAllAliveLocked fails when any worker is dead: barriers and control
// operations need the whole membership, because a barrier a dead worker
// missed would trim exactly the retained epoch its replacement needs.
func (c *Coordinator) requireAllAliveLocked(op string) error {
	for _, id := range c.order {
		if c.workers[id].dead.Load() {
			return fmt.Errorf("dist: %s requires all workers alive; %q is dead — replace it first", op, id)
		}
	}
	return nil
}

// awaitAck waits for one frame of the wanted type from the worker.
func (c *Coordinator) awaitAck(ws *workerState, want FrameType) (Frame, error) {
	timer := time.NewTimer(c.cfg.AckTimeout) //saql:wallclock network ack timeout, not stream time
	defer timer.Stop()
	var f Frame
	select {
	case f = <-ws.acks:
	case <-ws.readerDone:
		// The reader queues an ack before it can exit: a worker that acked
		// and then hung up (a clean shutdown) has answered, however the
		// select above happened to pick between the two.
		select {
		case f = <-ws.acks:
		default:
			err, _ := ws.failure.Load().(error)
			if err == nil {
				err = errors.New("connection closed")
			}
			return Frame{}, fmt.Errorf("dist: worker %q lost awaiting %s: %w", ws.id, want, err)
		}
	case <-timer.C:
		err := fmt.Errorf("dist: worker %q: no %s within %s", ws.id, want, c.cfg.AckTimeout)
		c.markDead(ws, err)
		return Frame{}, err
	}
	if f.Type != want {
		err := fmt.Errorf("dist: worker %q answered %s, wanted %s", ws.id, f.Type, want)
		c.markDead(ws, err)
		return Frame{}, err
	}
	return f, nil
}

// sendLocked writes one frame to a worker; a write failure marks it dead.
func (c *Coordinator) sendLocked(ws *workerState, f Frame) error {
	if ws.dead.Load() {
		return fmt.Errorf("dist: worker %q is dead", ws.id)
	}
	if err := WriteFrame(ws.conn, f); err != nil {
		c.markDead(ws, err)
		return err
	}
	return nil
}

func (c *Coordinator) rangeMapLocked() map[string][]saql.KeyRange {
	rm := make(map[string][]saql.KeyRange, len(c.workers))
	for id, ws := range c.workers {
		rm[id] = append([]saql.KeyRange(nil), ws.ranges...)
	}
	return rm
}

// ---------------------------------------------------------------------------
// Event dispatch
// ---------------------------------------------------------------------------

// Submit broadcasts one event to the cluster.
func (c *Coordinator) Submit(ev *saql.Event) error {
	return c.SubmitBatch([]*saql.Event{ev})
}

// SubmitBatch broadcasts a batch of events, in order, to every worker. The
// batch is retained until the next completed barrier so a replacement
// worker can catch up; a dead worker does not block ingest — survivors keep
// processing and the retained epoch covers the gap.
func (c *Coordinator) SubmitBatch(evs []*saql.Event) error {
	if len(evs) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrCoordinatorClosed
	}
	if len(c.workers) == 0 {
		return errors.New("dist: no workers")
	}
	batch := retainedBatch{start: c.offset, evs: append([]*saql.Event(nil), evs...)}
	c.epoch = append(c.epoch, batch)
	f := Frame{Type: FrameEvents, Payload: EncodeEvents(batch.start, batch.evs)}
	for _, id := range c.order {
		ws := c.workers[id]
		if ws.dead.Load() {
			continue
		}
		_ = c.sendLocked(ws, f) // write failure marks dead; epoch covers it
	}
	c.offset += int64(len(evs))
	return nil
}

// Offset reports the cluster stream position (events accepted so far).
func (c *Coordinator) Offset() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.offset
}

// ---------------------------------------------------------------------------
// Queryset control
// ---------------------------------------------------------------------------

// Register registers a query on every worker. Like every control
// operation it rides the event total order and is sealed by a barrier, so
// the retained epoch never contains control operations.
func (c *Coordinator) Register(name, src string) error {
	if err := saql.Validate(src); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.queries[name] != nil {
		return fmt.Errorf("dist: query %q already registered", name)
	}
	if err := c.controlLocked(&Control{Kind: CtlRegister, Name: name, Src: src}); err != nil {
		return err
	}
	c.queries[name] = &queryModel{src: src}
	return nil
}

// Update hot-swaps a query's source on every worker. carry requests
// window-state carry-over where compatible.
func (c *Coordinator) Update(name, src string, carry bool) error {
	if err := saql.Validate(src); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.queries[name]
	if q == nil {
		return fmt.Errorf("dist: query %q not registered", name)
	}
	if err := c.controlLocked(&Control{Kind: CtlUpdate, Name: name, Src: src, Carry: carry}); err != nil {
		return err
	}
	q.src = src
	return nil
}

// Pause pauses a query cluster-wide.
func (c *Coordinator) Pause(name string) error { return c.setPaused(name, true) }

// Resume resumes a paused query cluster-wide.
func (c *Coordinator) Resume(name string) error { return c.setPaused(name, false) }

func (c *Coordinator) setPaused(name string, paused bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.queries[name]
	if q == nil {
		return fmt.Errorf("dist: query %q not registered", name)
	}
	kind := CtlResume
	if paused {
		kind = CtlPause
	}
	if err := c.controlLocked(&Control{Kind: kind, Name: name}); err != nil {
		return err
	}
	q.paused = paused
	return nil
}

// Remove unregisters a query cluster-wide.
func (c *Coordinator) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.queries[name] == nil {
		return fmt.Errorf("dist: query %q not registered", name)
	}
	if err := c.controlLocked(&Control{Kind: CtlRemove, Name: name}); err != nil {
		return err
	}
	delete(c.queries, name)
	return nil
}

// Queries reports the registered queryset (name → source).
func (c *Coordinator) Queries() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.queries))
	for name, q := range c.queries {
		out[name] = q.src
	}
	return out
}

// controlLocked broadcasts one control op, collects every ack, and seals
// the op with a barrier. The barrier is what keeps replacement catch-up a
// pure event replay: an epoch never straddles a control operation.
func (c *Coordinator) controlLocked(ctl *Control) error {
	if c.closed {
		return ErrCoordinatorClosed
	}
	if err := c.requireAllAliveLocked("control"); err != nil {
		return err
	}
	f := Frame{Type: FrameControl, Payload: EncodeControl(ctl)}
	for _, id := range c.order {
		if err := c.sendLocked(c.workers[id], f); err != nil {
			return err
		}
	}
	for _, id := range c.order {
		ws := c.workers[id]
		ack, err := c.awaitAck(ws, FrameControlAck)
		if err != nil {
			return err
		}
		msg, err := DecodeErrorFrame(ack.Payload)
		if err != nil {
			c.markDead(ws, err)
			return err
		}
		if msg != "" {
			// The op was pre-validated; a worker-side failure means that
			// worker's queryset has diverged from the model.
			err := fmt.Errorf("dist: worker %q failed %s %q: %s", ws.id, ctl.Kind, ctl.Name, msg)
			c.markDead(ws, err)
			return err
		}
	}
	return c.checkpointLocked()
}

// ---------------------------------------------------------------------------
// Barriers
// ---------------------------------------------------------------------------

// Checkpoint drives a cluster-wide checkpoint barrier: every worker
// snapshots its own directory at the current stream offset. On success the
// retained epoch is trimmed and the alert dedup windows reset — everything
// before the barrier is durable everywhere and delivered exactly once.
func (c *Coordinator) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrCoordinatorClosed
	}
	return c.checkpointLocked()
}

func (c *Coordinator) checkpointLocked() error {
	if err := c.requireAllAliveLocked("checkpoint"); err != nil {
		return err
	}
	f := Frame{Type: FrameCheckpoint}
	for _, id := range c.order {
		if err := c.sendLocked(c.workers[id], f); err != nil {
			return err
		}
	}
	for _, id := range c.order {
		ws := c.workers[id]
		ack, err := c.awaitAck(ws, FrameCheckpointAck)
		if err != nil {
			return err
		}
		off, err := DecodeOffset(ack.Payload)
		if err != nil {
			c.markDead(ws, err)
			return err
		}
		if off != c.offset {
			err := fmt.Errorf("dist: worker %q checkpointed offset %d, cluster at %d", ws.id, off, c.offset)
			c.markDead(ws, err)
			return err
		}
	}
	// Barrier complete: every pre-barrier alert has been delivered (workers
	// flush before acking; readers deliver before routing the ack), so the
	// dedup windows can reset along with the epoch.
	c.epochBase = c.offset
	c.epoch = nil
	c.amu.Lock()
	for _, ws := range c.workers {
		ws.delivered = map[string]int{}
		ws.suppress = map[string]int{}
	}
	c.amu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// Migration and replacement
// ---------------------------------------------------------------------------

// Migrate moves key ranges from one live worker to another without
// stopping the stream: barrier (making every worker's snapshot the same
// consistent cut), pull the source's snapshot blobs, then reconfigure both
// ends under the new range map — the source restores without the migrated
// ranges (its ownership filters drop their state), the target restores
// with them and folds the source's blobs (its filters keep exactly the
// migrated ranges' state, and shared stream clocks merge idempotently).
func (c *Coordinator) Migrate(from, to string, ranges []saql.KeyRange) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrCoordinatorClosed
	}
	if from == to {
		return errors.New("dist: migration source and target are the same worker")
	}
	src, ok := c.workers[from]
	if !ok {
		return fmt.Errorf("dist: unknown worker %q", from)
	}
	dst, ok := c.workers[to]
	if !ok {
		return fmt.Errorf("dist: unknown worker %q", to)
	}
	if err := c.requireAllAliveLocked("migrate"); err != nil {
		return err
	}
	newSrc, err := SubtractRanges(src.ranges, ranges)
	if err != nil {
		return err
	}
	if len(newSrc) == 0 {
		return fmt.Errorf("dist: migration would leave worker %q with no key ranges", from)
	}
	newDst := NormalizeRanges(append(append([]saql.KeyRange(nil), dst.ranges...), ranges...))

	if err := c.checkpointLocked(); err != nil {
		return err
	}
	if err := c.sendLocked(src, Frame{Type: FrameStateRequest}); err != nil {
		return err
	}
	blobs, err := c.awaitAck(src, FrameStateBlobs)
	if err != nil {
		return err
	}
	off, states, err := DecodeStateBlobs(blobs.Payload)
	if err != nil {
		c.markDead(src, err)
		return err
	}
	if off != c.offset {
		err := fmt.Errorf("dist: worker %q shipped state at offset %d, cluster at %d", from, off, c.offset)
		c.markDead(src, err)
		return err
	}
	if err := c.sendLocked(src, Frame{Type: FrameReconfigure,
		Payload: EncodeReconfigure(&Reconfigure{Ranges: newSrc})}); err != nil {
		return err
	}
	if err := c.sendLocked(dst, Frame{Type: FrameReconfigure,
		Payload: EncodeReconfigure(&Reconfigure{Ranges: newDst, States: states})}); err != nil {
		return err
	}
	for _, ws := range []*workerState{src, dst} {
		ack, err := c.awaitAck(ws, FrameReconfigureAck)
		if err != nil {
			return err
		}
		ackOff, err := DecodeOffset(ack.Payload)
		if err != nil {
			c.markDead(ws, err)
			return err
		}
		if ackOff != c.offset {
			err := fmt.Errorf("dist: worker %q reconfigured at offset %d, cluster at %d", ws.id, ackOff, c.offset)
			c.markDead(ws, err)
			return err
		}
	}
	src.ranges = newSrc
	dst.ranges = newDst
	c.cfg.Logf("coordinator: migrated %v from %s to %s at offset %d", ranges, from, to, c.offset)
	return nil
}

// ReplaceWorker hands a dead worker's identity to a fresh connection whose
// far end serves a Worker pointed at the SAME directory. The replacement
// restores the last barrier's snapshot, replays its own journaled tail to
// the death point, and the coordinator re-sends the retained epoch past it.
// Alerts the replay re-raises are suppressed up to the count the dead
// worker (and any predecessors this epoch) already delivered — delivery
// stays exactly-once across any number of kills within one epoch.
func (c *Coordinator) ReplaceWorker(id string, conn net.Conn) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrCoordinatorClosed
	}
	old, ok := c.workers[id]
	if !ok {
		return fmt.Errorf("dist: unknown worker %q", id)
	}
	if !old.dead.Load() {
		return fmt.Errorf("dist: worker %q is alive; kill or drain it before replacing", id)
	}
	_ = old.conn.Close()
	<-old.readerDone

	ws := c.newWorkerState(id, conn, old.ranges)
	// The replacement replays the epoch from its snapshot onward: every
	// alert the dead incarnation already delivered this epoch will be
	// re-raised and must be swallowed once per prior delivery.
	c.amu.Lock()
	ws.delivered = make(map[string]int, len(old.delivered))
	ws.suppress = make(map[string]int, len(old.delivered))
	for k, n := range old.delivered {
		ws.delivered[k] = n
		ws.suppress[k] = n
	}
	c.amu.Unlock()

	off, err := c.handshake(ws, c.rangeMapLocked())
	if err != nil {
		_ = conn.Close()
		<-ws.readerDone
		return err
	}
	if off < c.epochBase || off > c.offset {
		_ = conn.Close()
		<-ws.readerDone
		return fmt.Errorf("dist: replacement %q resumed at offset %d outside epoch [%d,%d] (wrong directory?)",
			id, off, c.epochBase, c.offset)
	}
	// Re-send the retained tail the dead worker never journaled. The worker
	// skips any overlap with its own replay by offset, so slicing here is
	// an optimisation, not a correctness requirement.
	resent := 0
	for _, b := range c.epoch {
		if b.start+int64(len(b.evs)) <= off {
			continue
		}
		evs, start := b.evs, b.start
		if start < off {
			evs = evs[off-start:]
			start = off
		}
		if err := c.sendLocked(ws, Frame{Type: FrameEvents, Payload: EncodeEvents(start, evs)}); err != nil {
			return err
		}
		resent += len(evs)
	}
	c.workers[id] = ws
	c.cfg.Logf("coordinator: replaced %s (resumed at %d, re-sent %d events to reach %d)",
		id, off, resent, c.offset)
	return nil
}

// ---------------------------------------------------------------------------
// Heartbeats and leases
// ---------------------------------------------------------------------------

// Heartbeat pings every live worker. Acks renew leases asynchronously; the
// ping also serves as the idle-stream alert flush tick.
func (c *Coordinator) Heartbeat() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrCoordinatorClosed
	}
	c.nonce++
	f := Frame{Type: FrameHeartbeat, Payload: EncodeNonce(c.nonce)}
	for _, id := range c.order {
		ws := c.workers[id]
		if ws.dead.Load() {
			continue
		}
		_ = c.sendLocked(ws, f)
	}
	return nil
}

// ExpireLeases declares workers silent past the configured lease dead and
// returns their ids. Dead workers stay in the membership awaiting
// ReplaceWorker. A zero lease disables expiry.
func (c *Coordinator) ExpireLeases() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.Lease <= 0 {
		return nil
	}
	deadline := time.Now().Add(-c.cfg.Lease).UnixNano() //saql:wallclock lease expiry is wall-time by definition
	var expired []string
	for _, id := range c.order {
		ws := c.workers[id]
		if ws.dead.Load() || ws.lastSeen.Load() >= deadline {
			continue
		}
		c.markDead(ws, ErrLeaseExpired)
		_ = ws.conn.Close()
		expired = append(expired, id)
	}
	return expired
}

// DeadWorkers reports the ids of workers currently marked dead.
func (c *Coordinator) DeadWorkers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var dead []string
	for _, id := range c.order {
		if c.workers[id].dead.Load() {
			dead = append(dead, id)
		}
	}
	return dead
}

// Workers reports the cluster range map (worker id → owned key ranges).
func (c *Coordinator) Workers() map[string][]saql.KeyRange {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rangeMapLocked()
}

// ---------------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------------

// Close stops the cluster gracefully: every live worker flushes its
// end-of-input windows (their final alerts are delivered), takes a final
// checkpoint, and closes; then every connection is torn down. A cluster
// restarted from the worker directories resumes after the final barrier.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.closing.Store(true)
	var firstErr error
	f := Frame{Type: FrameShutdown}
	for _, id := range c.order {
		ws := c.workers[id]
		if ws.dead.Load() {
			continue
		}
		if err := c.sendLocked(ws, f); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, id := range c.order {
		ws := c.workers[id]
		if !ws.dead.Load() {
			if _, err := c.awaitAck(ws, FrameShutdownAck); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		_ = ws.conn.Close()
		<-ws.readerDone
	}
	return firstErr
}
