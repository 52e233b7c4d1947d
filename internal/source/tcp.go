package source

import (
	"context"
	"errors"
	"net"
	"sync"
)

// Listen builds a source that accepts TCP connections on addr and decodes
// each connection as an independent stream of the configured format (every
// connection gets its own decoder, since formats like auditd are stateful
// per stream; connections decode in parallel with each other, so each has
// one). Events from all connections merge into one time-ordered batcher. The listener is bound immediately — Addr reports the bound
// address, so addr may use port 0 — and Run serves until ctx is cancelled.
func Listen(addr string, cfg Config) (*Source, error) {
	cfg = cfg.withDefaults()
	s := &Source{cfg: cfg}
	// Validate the format before binding, not on first connection.
	if _, err := s.newDecoders(1); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.desc = "tcp:" + ln.Addr().String()
	s.addr = ln.Addr()
	s.live = true // low-rate senders see latency bounded by FlushInterval
	s.run = func(ctx context.Context, b *batcher) error {
		return s.serve(ctx, ln, b)
	}
	return s, nil
}

// Addr reports the bound listener address of a TCP source (nil otherwise).
func (s *Source) Addr() net.Addr { return s.addr }

func (s *Source) serve(ctx context.Context, ln net.Listener, b *batcher) error {
	var (
		conns    sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }

	// Track open connections so shutdown can unblock pumps parked in
	// conn.Read: closing only the listener would leave an idle sender
	// hanging Run forever.
	var (
		connMu  sync.Mutex
		open    = map[net.Conn]struct{}{}
		closing bool
	)
	track := func(c net.Conn) bool {
		connMu.Lock()
		defer connMu.Unlock()
		if closing {
			c.Close()
			return false
		}
		open[c] = struct{}{}
		return true
	}
	untrack := func(c net.Conn) {
		connMu.Lock()
		delete(open, c)
		connMu.Unlock()
	}

	// Close the listener and every open connection on cancellation.
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
		case <-stop:
		}
		ln.Close()
		connMu.Lock()
		closing = true
		for c := range open {
			c.Close()
		}
		connMu.Unlock()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				break
			}
			fail(err)
			break
		}
		decs, err := s.newDecoders(1)
		if err != nil {
			conn.Close()
			fail(err)
			break
		}
		if !track(conn) {
			break // already shutting down
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			defer untrack(conn)
			defer conn.Close()
			err := s.pump(ctx, conn, decs, b, false)
			if err != nil && ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				fail(err)
				return
			}
			if err := drain(decs, b); err != nil {
				fail(err)
			}
		}()
	}
	close(stop)
	conns.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
