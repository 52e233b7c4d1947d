package runtime

import (
	"sync"
	"sync/atomic"

	"saql/internal/engine"
)

// OverflowPolicy selects what Publish does when an alert subscription's
// buffer is full.
type OverflowPolicy uint8

// Overflow policies.
const (
	// Block applies backpressure: the producer waits for capacity. The
	// default, for consumers that must not observe gaps.
	Block OverflowPolicy = iota
	// DropNewest discards the incoming alert, counted per subscription
	// (AlertSubscription.Dropped).
	DropNewest
)

// AlertSubscription is one consumer's live feed of alerts. Alerts arrive on
// C in delivery order; C is closed when the subscription or the engine
// closes. A subscriber using Block must keep draining C until it
// closes, or it backpressures the whole runtime.
type AlertSubscription struct {
	// C delivers alerts. Closed when the subscription or engine closes.
	C <-chan *engine.Alert

	ch      chan *engine.Alert
	done    chan struct{} // closed on unsubscribe, releases blocked senders
	policy  OverflowPolicy
	filter  func(*engine.Alert) bool // nil = every alert
	id      int
	dropped atomic.Int64
	fan     *AlertFanout
	closed  bool  // guarded by fan.mu
	err     error // guarded by fan.mu; why the stream ended (see Err)
}

// Dropped reports how many alerts overflow discarded for this subscriber
// (DropNewest policy only).
func (s *AlertSubscription) Dropped() int64 { return s.dropped.Load() }

// Err reports why the subscription's channel was closed by its producer:
// ErrClosed when the engine closed (or the subscription was created on an
// already-closed engine), the query-closed sentinel when the owning query
// handle closed, and nil while the subscription is live or after the
// subscriber cancelled it itself. It lets callers distinguish "I closed
// this" from "the engine ended my stream" — previously a subscription
// handed out by a closed engine was dead with no way to tell.
func (s *AlertSubscription) Err() error {
	s.fan.mu.Lock()
	defer s.fan.mu.Unlock()
	return s.err
}

// Close cancels the subscription and closes C. It is safe to call more than
// once and after the engine has closed.
func (s *AlertSubscription) Close() { s.fan.end(s, nil) }

// Ended reports whether the subscription's channel has been closed (by the
// subscriber, the query handle, or the engine).
func (s *AlertSubscription) Ended() bool {
	s.fan.mu.Lock()
	defer s.fan.mu.Unlock()
	return s.closed
}

// AlertFanout fans alerts out to any number of subscribers plus an optional
// serialized callback.
type AlertFanout struct {
	onAlert func(*engine.Alert)

	// gate, when set, decides per alert whether it is delivered at all
	// (callback, subscribers, delivered counter). The engine installs its
	// tenant alert-budget check here before any publishing goroutine exists;
	// the gate runs under pubMu, so it is serialised like the callback.
	gate func(*engine.Alert) bool

	// pubMu serialises Publish: the callback is never invoked concurrently
	// and every subscriber observes alerts in one global order.
	pubMu sync.Mutex

	mu        sync.Mutex
	subs      map[int]*AlertSubscription
	nextID    int
	closed    bool
	delivered atomic.Int64
}

// NewAlertFanout creates a fan-out. onAlert may be nil; when set it is
// invoked serially for every published alert.
func NewAlertFanout(onAlert func(*engine.Alert)) *AlertFanout {
	return &AlertFanout{onAlert: onAlert, subs: map[int]*AlertSubscription{}}
}

// Subscribe registers a consumer with the given buffer size and overflow
// policy. Subscribing to a closed fan-out returns a subscription whose
// channel is already closed and whose Err reports ErrClosed.
func (f *AlertFanout) Subscribe(buf int, policy OverflowPolicy) *AlertSubscription {
	return f.SubscribeFunc(buf, policy, nil)
}

// SubscribeFunc registers a consumer that receives only the alerts filter
// accepts (nil means all). Filters run inside Publish and must be fast and
// side-effect free; per-query subscriptions are filters on Alert.Query.
func (f *AlertFanout) SubscribeFunc(buf int, policy OverflowPolicy, filter func(*engine.Alert) bool) *AlertSubscription {
	if buf < 1 {
		buf = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan *engine.Alert, buf)
	sub := &AlertSubscription{
		ch: ch, C: ch, done: make(chan struct{}), policy: policy, filter: filter, id: f.nextID, fan: f,
	}
	f.nextID++
	if f.closed {
		close(ch)
		sub.closed = true
		sub.err = ErrClosed
		return sub
	}
	f.subs[sub.id] = sub
	return sub
}

// ClosedSubscription returns a born-closed subscription whose Err reports
// err: what Subscribe hands out when the subscribed-to object (engine or
// query handle) is already gone.
func (f *AlertFanout) ClosedSubscription(err error) *AlertSubscription {
	ch := make(chan *engine.Alert)
	close(ch)
	return &AlertSubscription{ch: ch, C: ch, done: make(chan struct{}), fan: f, closed: true, err: err}
}

// End cancels a subscription on behalf of its producer, recording err as the
// reason (exposed through Err). A query handle uses it to end its per-query
// streams when the handle closes.
func (f *AlertFanout) End(s *AlertSubscription, err error) { f.end(s, err) }

func (f *AlertFanout) end(s *AlertSubscription, err error) {
	f.mu.Lock()
	if s.closed {
		f.mu.Unlock()
		return
	}
	delete(f.subs, s.id)
	s.closed = true
	s.err = err
	close(s.done) // release any Publish blocked on s.ch
	f.mu.Unlock()

	// Wait for in-flight Publish to leave s.ch before closing it.
	f.pubMu.Lock()
	close(s.ch)
	f.pubMu.Unlock()
}

// Publish delivers alerts to the callback and every subscriber whose filter
// accepts them. Safe for concurrent use; deliveries are serialised.
func (f *AlertFanout) Publish(alerts []*engine.Alert) {
	if len(alerts) == 0 {
		return
	}
	f.pubMu.Lock()
	defer f.pubMu.Unlock()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	subs := make([]*AlertSubscription, 0, len(f.subs))
	for _, s := range f.subs {
		subs = append(subs, s)
	}
	f.mu.Unlock()

	for _, a := range alerts {
		if f.gate != nil && !f.gate(a) {
			continue
		}
		f.delivered.Add(1)
		if f.onAlert != nil {
			f.onAlert(a)
		}
		for _, s := range subs {
			if s.filter != nil && !s.filter(a) {
				continue
			}
			switch s.policy {
			case Block:
				select {
				case s.ch <- a:
				case <-s.done: // subscriber cancelled mid-delivery
				}
			case DropNewest:
				select {
				case s.ch <- a:
				default:
					s.dropped.Add(1)
				}
			}
		}
	}
}

// SetGate installs the per-alert admission check (nil for none). It must be
// set before the fan-out is first published to — the engine constructor —
// since Publish reads the field without synchronisation.
func (f *AlertFanout) SetGate(gate func(*engine.Alert) bool) { f.gate = gate }

// Delivered reports how many alerts have been published.
func (f *AlertFanout) Delivered() int64 { return f.delivered.Load() }

// Close closes the fan-out and every subscriber channel (each subscriber's
// Err reports ErrClosed). Publish becomes a no-op afterwards.
func (f *AlertFanout) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	subs := make([]*AlertSubscription, 0, len(f.subs))
	for id, s := range f.subs {
		subs = append(subs, s)
		s.closed = true
		s.err = ErrClosed
		close(s.done)
		delete(f.subs, id)
	}
	f.mu.Unlock()

	f.pubMu.Lock()
	for _, s := range subs {
		close(s.ch)
	}
	f.pubMu.Unlock()
}
