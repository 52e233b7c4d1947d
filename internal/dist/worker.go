package dist

// Worker: one cluster member. A worker is deliberately thin — a frame loop
// around a completely normal saql.Engine restricted to the key ranges it
// owns (saql.WithKeyRanges) and journaling every event to its own directory
// (the checkpoint substrate). All cluster semantics — total order, barrier
// placement, epoch retention, alert dedup — live in the coordinator; the
// worker just applies frames in the order they arrive, which IS the
// cluster's total order, and streams the alerts its ownership filters let
// through back over the same connection.
//
// Frames are handled strictly sequentially, so a checkpoint frame takes its
// barrier after every event frame before it and before every event frame
// after it — the same control-queue total order the engine gives barriers
// locally, lifted to the wire.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"saql"
	"saql/internal/snapshot"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Dir is the worker's journal + checkpoint directory: its entire
	// durable identity. A replacement worker pointed at the same directory
	// resumes the dead worker's life.
	Dir string
	// Shards is the engine's shard count (default GOMAXPROCS).
	Shards int
	// QueueSize bounds the engine ingest queue (default engine default).
	QueueSize int
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

// Worker runs one cluster member over one connection. Create it with
// NewWorker and drive it with Serve; it builds (or restores) its engine
// when the coordinator's hello arrives.
type Worker struct {
	cfg WorkerConfig
	id  string

	// connMu guards the conn pointer; wmu serialises frame writes on it.
	// They are distinct from amu so Kill — which must never block behind a
	// stalled pipe write — can close the connection without queueing on the
	// write path.
	connMu sync.Mutex
	conn   net.Conn
	wmu    sync.Mutex

	// amu guards the outbound alert buffer and the mute flag. The engine's
	// alert handler appends here from runtime goroutines; the serve loop
	// drains it after every frame and before every ack.
	amu     sync.Mutex
	pending []*saql.Alert
	muted   bool

	// engMu guards the engine pointer across reconfiguration and Kill.
	engMu sync.Mutex
	eng   *saql.Engine

	// off is the next expected stream offset (serve-goroutine only).
	off int64

	killed atomic.Bool
}

// NewWorker creates a worker. No engine exists until Serve receives the
// coordinator's hello.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Worker{cfg: cfg}
}

// ID reports the identity the coordinator assigned (empty before hello).
func (w *Worker) ID() string { return w.id }

// Offset reports the worker's stream position. Meaningful only between
// frames (the serve goroutine owns it); tests read it after shutdown.
func (w *Worker) Offset() int64 { return w.off }

// Kill simulates abrupt worker death: the connection drops and the engine
// closes mid-stream, exactly as a crashed process would leave things — the
// journal seals at the kill point, no final flush alerts escape, and the
// directory is restorable by a replacement. Safe to call from any
// goroutine.
func (w *Worker) Kill() {
	w.killed.Store(true)
	// Mute first: the engine close below flushes open windows, and a dead
	// worker's end-of-stream alerts must never be delivered (the serial
	// reference never saw an end of stream here).
	w.amu.Lock()
	w.muted = true
	w.pending = nil
	w.amu.Unlock()
	w.connMu.Lock()
	conn := w.conn
	w.connMu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	w.engMu.Lock()
	eng := w.eng
	w.engMu.Unlock()
	if eng != nil {
		_ = eng.Close()
	}
}

// Serve speaks the cluster protocol on conn until clean shutdown (nil), the
// connection drops, or a fatal error occurs. On any non-clean exit the
// engine is muted and closed so the directory is immediately restorable by
// a replacement.
func (w *Worker) Serve(conn net.Conn) error {
	w.connMu.Lock()
	w.conn = conn
	w.connMu.Unlock()
	defer conn.Close()
	clean := false
	defer func() {
		if clean {
			return
		}
		w.amu.Lock()
		w.muted = true
		w.pending = nil
		w.amu.Unlock()
		w.engMu.Lock()
		eng := w.eng
		w.engMu.Unlock()
		if eng != nil {
			_ = eng.Close()
		}
	}()
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			if w.killed.Load() {
				return nil
			}
			return fmt.Errorf("dist: worker %s: connection lost: %w", w.id, err)
		}
		done, err := w.handle(f)
		if err != nil {
			if !w.killed.Load() {
				w.cfg.Logf("worker %s: %s: %v", w.id, f.Type, err)
				_ = w.writeFrame(Frame{Type: FrameError, Payload: EncodeErrorFrame(err.Error())})
			}
			return err
		}
		if done {
			clean = true
			return nil
		}
	}
}

// handle applies one frame; done reports clean shutdown.
func (w *Worker) handle(f Frame) (done bool, err error) {
	switch f.Type {
	case FrameHello:
		return false, w.handleHello(f.Payload)
	case FrameEvents:
		return false, w.handleEvents(f.Payload)
	case FrameControl:
		return false, w.handleControl(f.Payload)
	case FrameCheckpoint:
		return false, w.handleCheckpoint()
	case FrameHeartbeat:
		return false, w.handleHeartbeat(f.Payload)
	case FrameStateRequest:
		return false, w.handleStateRequest()
	case FrameReconfigure:
		return false, w.handleReconfigure(f.Payload)
	case FrameShutdown:
		return true, w.handleShutdown()
	default:
		return false, fmt.Errorf("unexpected frame %s", f.Type)
	}
}

// engineOpts builds the engine options for this worker under a range set.
func (w *Worker) engineOpts(ranges []saql.KeyRange) []saql.Option {
	opts := []saql.Option{
		saql.WithKeyRanges(ranges...),
		saql.WithAlertHandler(w.onAlert),
	}
	if w.cfg.Shards > 0 {
		opts = append(opts, saql.WithShards(w.cfg.Shards))
	}
	if w.cfg.QueueSize > 0 {
		opts = append(opts, saql.WithIngestQueue(w.cfg.QueueSize))
	}
	return opts
}

// handleHello builds the worker's engine from whatever its directory holds
// (saql.Open): a checkpoint is restored and its journal tail replayed
// (replacement), an empty directory starts fresh, and a journal whose run
// died before any barrier completed is replayed from record 0 into an engine
// with no queries — exactly right, because no control op completed either
// (every control op is followed by a barrier). The worker answers with its
// stream position, and any replay alerts are flushed first so the
// coordinator's suppression window dedups them before the ack commits the
// position.
func (w *Worker) handleHello(p []byte) error {
	h, err := DecodeHello(p)
	if err != nil {
		return err
	}
	if w.eng != nil {
		return errors.New("duplicate hello")
	}
	w.id = h.WorkerID
	ranges := h.Ranges[w.id]
	if len(ranges) == 0 {
		return fmt.Errorf("hello assigns no key ranges to worker %q", w.id)
	}

	eng, info, err := saql.Open(w.cfg.Dir,
		saql.WithRestoreEngineOptions(w.engineOpts(ranges)...))
	if err != nil {
		return err
	}
	off := info.Offset + info.Replayed
	w.cfg.Logf("worker %s: opened %s: %d queries at offset %d, replayed %d",
		w.id, w.cfg.Dir, info.Queries, info.Offset, info.Replayed)

	w.engMu.Lock()
	w.eng = eng
	w.engMu.Unlock()
	w.off = off
	w.flushAlerts()
	return w.writeFrame(Frame{Type: FrameHelloAck, Payload: EncodeOffset(off)})
}

// handleEvents folds one broadcast batch into the engine. Batches the
// worker has already journaled (a replacement catch-up overlapping its own
// replayed tail) are skipped by prefix; a gap is a protocol fault.
func (w *Worker) handleEvents(p []byte) error {
	eb, err := DecodeEvents(p)
	if err != nil {
		return err
	}
	evs, start := eb.Events, eb.Start
	if start+int64(len(evs)) <= w.off {
		return nil // entirely before our position: already journaled
	}
	if start < w.off {
		evs = evs[w.off-start:]
		start = w.off
	}
	if start > w.off {
		return fmt.Errorf("stream gap: at offset %d, batch starts at %d", w.off, start)
	}
	if err := w.engine().SubmitBatch(evs); err != nil {
		return err
	}
	w.off += int64(len(evs))
	w.flushAlerts()
	return nil
}

// handleControl applies one queryset control operation. Failures are
// reported in the ack rather than killing the connection: the coordinator
// decides what a diverged worker costs.
func (w *Worker) handleControl(p []byte) error {
	c, err := DecodeControl(p)
	if err != nil {
		return err
	}
	msg := ""
	if err := w.applyControl(c); err != nil {
		msg = err.Error()
	}
	w.flushAlerts()
	return w.writeFrame(Frame{Type: FrameControlAck, Payload: EncodeErrorFrame(msg)})
}

func (w *Worker) applyControl(c *Control) error {
	eng := w.engine()
	switch c.Kind {
	case CtlRegister:
		_, err := eng.Register(c.Name, c.Src)
		return err
	case CtlRemove:
		h, ok := eng.Query(c.Name)
		if !ok {
			return fmt.Errorf("query %q not registered", c.Name)
		}
		return h.Close()
	case CtlUpdate:
		h, ok := eng.Query(c.Name)
		if !ok {
			return fmt.Errorf("query %q not registered", c.Name)
		}
		if c.Carry {
			return h.Update(c.Src, saql.CarryWindowState())
		}
		return h.Update(c.Src)
	case CtlPause:
		h, ok := eng.Query(c.Name)
		if !ok {
			return fmt.Errorf("query %q not registered", c.Name)
		}
		return h.Pause()
	case CtlResume:
		h, ok := eng.Query(c.Name)
		if !ok {
			return fmt.Errorf("query %q not registered", c.Name)
		}
		return h.Resume()
	default:
		return fmt.Errorf("unknown control kind %d", c.Kind)
	}
}

// handleCheckpoint takes the barrier: checkpoint the engine into the
// worker directory, then flush alerts BEFORE acking. Checkpoint's barrier
// guarantees every pre-barrier alert has been through the handler when it
// returns, and no post-barrier event exists yet (the coordinator holds its
// dispatch lock until the ack) — so the alerts flushed here are exactly the
// epoch's, which is what lets the coordinator trim its suppression window
// at the ack.
func (w *Worker) handleCheckpoint() error {
	info, err := w.engine().Checkpoint(w.cfg.Dir)
	if err != nil {
		return err
	}
	if info.Offset != w.off {
		return fmt.Errorf("checkpoint barrier at offset %d, stream position %d", info.Offset, w.off)
	}
	w.flushAlerts()
	return w.writeFrame(Frame{Type: FrameCheckpointAck, Payload: EncodeOffset(info.Offset)})
}

// handleHeartbeat renews the lease and drains any alerts raised since the
// last frame — the flush path during idle stretches.
func (w *Worker) handleHeartbeat(p []byte) error {
	nonce, err := DecodeNonce(p)
	if err != nil {
		return err
	}
	w.flushAlerts()
	return w.writeFrame(Frame{Type: FrameHeartbeatAck, Payload: EncodeNonce(nonce)})
}

// handleStateRequest ships the directory's snapshot blobs — the migration
// source's half of a key-range transfer. The coordinator only asks
// immediately after a barrier, so the snapshot is the cluster-consistent
// cut at the current offset.
func (w *Worker) handleStateRequest() error {
	snap, err := snapshot.Read(w.cfg.Dir)
	if err != nil {
		return err
	}
	states := make(map[string][][]byte, len(snap.Queries))
	for _, q := range snap.Queries {
		if len(q.States) > 0 {
			states[q.Name] = q.States
		}
	}
	return w.writeFrame(Frame{Type: FrameStateBlobs, Payload: EncodeStateBlobs(snap.Offset, states)})
}

// handleReconfigure re-restores the engine under a new range map: close
// (muted — the close flush's end-of-stream alerts are an artifact of the
// swap, not of the stream), restore from the worker's own checkpoint without
// starting, fold any migrated-in state blobs into its queries, start (which
// keeps what the new ranges own), unmute, ack. Sent only right after a
// barrier, so the journal head equals the snapshot offset and the restore
// replays nothing.
func (w *Worker) handleReconfigure(p []byte) error {
	rc, err := DecodeReconfigure(p)
	if err != nil {
		return err
	}
	w.amu.Lock()
	w.muted = true
	w.amu.Unlock()
	w.engMu.Lock()
	defer w.engMu.Unlock()
	if err := w.eng.Close(); err != nil {
		return err
	}
	eng, rinfo, err := saql.Restore(w.cfg.Dir, saql.WithoutStart(),
		saql.WithRestoreEngineOptions(w.engineOpts(rc.Ranges)...))
	if err != nil {
		return err
	}
	w.eng = eng
	if rinfo.Replayed != 0 {
		return fmt.Errorf("reconfigure off-barrier: restore replayed %d events", rinfo.Replayed)
	}
	if rinfo.Offset != w.off {
		return fmt.Errorf("reconfigure snapshot at offset %d, stream position %d", rinfo.Offset, w.off)
	}
	if err := eng.RestoreStateBlobs(rc.States); err != nil {
		return err
	}
	if err := eng.Start(context.Background()); err != nil {
		return err
	}
	if len(rc.States) > 0 {
		// The barrier's snapshot predates the migrated-in state: re-take it
		// at the same offset, or a replacement restoring this directory
		// would own the migrated ranges without their open windows.
		if _, err := eng.Checkpoint(w.cfg.Dir); err != nil {
			return err
		}
	}
	w.amu.Lock()
	w.muted = false
	w.pending = nil
	w.amu.Unlock()
	return w.writeFrame(Frame{Type: FrameReconfigureAck, Payload: EncodeOffset(w.off)})
}

// handleShutdown is graceful cluster stop: flush end-of-input windows (the
// final alerts the serial reference raises at its own end of stream), take
// the final checkpoint, close, flush, ack.
func (w *Worker) handleShutdown() error {
	eng := w.engine()
	eng.Flush()
	if _, err := eng.Checkpoint(w.cfg.Dir); err != nil {
		return err
	}
	if err := eng.Close(); err != nil {
		return err
	}
	w.flushAlerts()
	return w.writeFrame(Frame{Type: FrameShutdownAck, Payload: EncodeOffset(w.off)})
}

func (w *Worker) engine() *saql.Engine {
	w.engMu.Lock()
	defer w.engMu.Unlock()
	return w.eng
}

// onAlert is the engine's alert handler: buffer unless muted. It runs on
// runtime goroutines and must never block on the connection.
func (w *Worker) onAlert(a *saql.Alert) {
	w.amu.Lock()
	if !w.muted {
		w.pending = append(w.pending, a)
	}
	w.amu.Unlock()
}

// flushAlerts ships the buffered alerts. Write failures are left to the
// read loop, which will observe the dead connection on its next read.
func (w *Worker) flushAlerts() {
	w.amu.Lock()
	alerts := w.pending
	w.pending = nil
	w.amu.Unlock()
	if len(alerts) == 0 {
		return
	}
	if err := w.writeFrame(Frame{Type: FrameAlerts, Payload: EncodeAlerts(alerts)}); err != nil {
		w.cfg.Logf("worker %s: alert flush: %v", w.id, err)
	}
}

func (w *Worker) writeFrame(f Frame) error {
	w.connMu.Lock()
	conn := w.conn
	w.connMu.Unlock()
	if conn == nil {
		return errors.New("dist: worker not serving")
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return WriteFrame(conn, f)
}
