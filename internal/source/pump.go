package source

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"saql/internal/codec"
	"saql/internal/event"
)

// ---------------------------------------------------------------------------
// Line pump: one reader, a decode pool, one in-order stage
// ---------------------------------------------------------------------------
//
// A byte stream goes through three stages. The reader (the goroutine that
// called pump) cuts it into line-aligned chunks: the complete lines of one
// read, a line that straddled reads joined in front of them. The decode
// pool's workers, one decoder each, decode whole chunks. The in-order stage
// takes the chunks back in the order they were read, publishes each one's
// line and decode-error counts, reports its decode errors to OnError in line
// order and hands its events to the batcher in one add. The batcher
// therefore sees what one decoder reading the stream line by line would
// hand it, in the same order, whatever the worker count and however the
// reads cut the stream. A pool of one decoder (auditd, one core, each TCP
// connection) starts no goroutine: the reader decodes and publishes each
// chunk itself.

// pageBytes is the size of one read.
const pageBytes = 64 * 1024

var errLineTooLong = fmt.Errorf("source: line exceeds %d bytes, discarded", maxLineBytes)

// chunk is one unit of the decode pool.
type chunk struct {
	// Cut by the reader.
	buf      []byte // complete lines, each ending in '\n' but an unterminated last line at EOF
	overLong bool   // after buf's lines, one over-long line was discarded
	flush    bool   // follow-mode EOF: flush the batcher once this chunk is in

	// Decoded by a worker.
	evs   []*event.Event // a nil one stands for the next of skips
	skips []skipLine     // lines the prefilter of generation gen did not admit, in line order
	gen   uint64
	errs  []error // decode errors, in line order
	lines int64
	done  chan struct{} // a worker signals the in-order stage
}

// skipLine is a line a decoder scanned and checked but did not build: its
// event's time and the line itself, a sub-slice of the chunk's buf.
type skipLine struct {
	t    time.Time
	line []byte
}

// decodePool runs one stream's decode workers and in-order stage. At most
// len(free) = 2·workers chunks exist, so at most that many are in flight;
// with one decoder there is one chunk and nothing is in flight.
type decodePool struct {
	b      *batcher
	ctr    *counters
	onErr  func(error)
	inline codec.Decoder // the only decoder, run by the reader; nil with workers

	free  chan *chunk   // chunks the reader may fill
	work  chan *chunk   // reader → workers
	order chan *chunk   // reader → in-order stage, in read order
	quit  chan struct{} // closed when the in-order stage stops on an error
	err   error         // the in-order stage's error; read after wg.Wait
	wg    sync.WaitGroup

	// The reader's state.
	cur       *chunk // the chunk being cut
	tail      []byte // partial line awaiting its newline
	discardTo bool   // inside an over-long line, dropping until newline
}

// startPool starts one worker per decoder and the in-order stage, or none
// for a single decoder.
func startPool(decs []codec.Decoder, b *batcher, ctr *counters, onErr func(error)) *decodePool {
	n := 2 * len(decs)
	if len(decs) == 1 {
		n = 1
	}
	p := &decodePool{
		b: b, ctr: ctr, onErr: onErr,
		free:  make(chan *chunk, n),
		work:  make(chan *chunk, n),
		order: make(chan *chunk, n),
		quit:  make(chan struct{}),
	}
	for range n {
		p.free <- &chunk{done: make(chan struct{}, 1)}
	}
	if len(decs) == 1 {
		p.inline = decs[0]
		return p
	}
	p.wg.Add(len(decs) + 1)
	for _, dec := range decs {
		go p.decode(dec)
	}
	go p.publish()
	return p
}

// stop waits for the chunks in flight and for every goroutine of the pool,
// and returns the in-order stage's error.
func (p *decodePool) stop() error {
	close(p.work)
	close(p.order)
	p.wg.Wait()
	return p.err
}

// decode is one worker: it decodes whole chunks with its own decoder.
func (p *decodePool) decode(dec codec.Decoder) {
	defer p.wg.Done()
	for c := range p.work {
		p.decodeChunk(dec, c)
		c.done <- struct{}{}
	}
}

// decodeChunk decodes c's lines with dec, under the destination's current
// prefilter table when dec can skip lines (codec.Skipper).
func (p *decodePool) decodeChunk(dec codec.Decoder, c *chunk) {
	var pf codec.Prefilter
	sk, _ := dec.(codec.Skipper)
	if sk != nil && p.b.skip != nil {
		pf, c.gen = p.b.skip.Prefilter()
	}
	buf := c.buf
	for len(buf) > 0 {
		line := buf
		if i := bytes.IndexByte(buf, '\n'); i >= 0 {
			line, buf = buf[:i], buf[i+1:]
		} else {
			buf = nil
		}
		c.lines++
		if len(line) > maxLineBytes {
			c.errs = append(c.errs, errLineTooLong)
			continue
		}
		line = bytes.TrimSuffix(line, []byte("\r"))
		var (
			evs []*event.Event
			err error
		)
		if pf != nil {
			var t time.Time
			var skip bool
			if evs, t, skip, err = sk.DecodeSkipping(line, pf); skip {
				c.skips = append(c.skips, skipLine{t: t, line: line})
				c.evs = append(c.evs, nil)
				continue
			}
		} else {
			evs, err = dec.Decode(line)
		}
		if err != nil {
			c.errs = append(c.errs, err)
		}
		// Decode's slice is only good until the next call; the events are ours.
		c.evs = append(c.evs, evs...)
	}
	if c.overLong {
		c.lines++
		c.errs = append(c.errs, errLineTooLong)
	}
}

// publish is the in-order stage.
func (p *decodePool) publish() {
	defer p.wg.Done()
	for c := range p.order {
		<-c.done
		p.settle(c)
	}
}

// settle publishes one decoded chunk and frees it. After a failed
// submission it stops publishing and closes quit, but keeps freeing chunks
// until the reader stops.
func (p *decodePool) settle(c *chunk) {
	if p.err == nil {
		if p.err = p.emit(c); p.err != nil {
			close(p.quit)
		}
	}
	clear(c.evs) // the batcher copied them; do not pin them until reuse
	clear(c.errs)
	clear(c.skips)
	c.buf, c.evs, c.errs, c.skips = c.buf[:0], c.evs[:0], c.errs[:0], c.skips[:0]
	c.lines, c.overLong, c.flush = 0, false, false
	p.free <- c
}

// emit publishes one decoded chunk.
func (p *decodePool) emit(c *chunk) error {
	p.ctr.lines.Add(c.lines)
	if len(c.errs) > 0 {
		p.ctr.decodeErrors.Add(int64(len(c.errs)))
		if p.onErr != nil {
			for _, err := range c.errs {
				p.onErr(err)
			}
		}
	}
	if err := p.b.addLines(c.evs, c.skips, c.gen); err != nil {
		return err
	}
	if c.flush {
		return p.b.flush()
	}
	return nil
}

// chunk returns the chunk being cut, taking a free one if there is none;
// false once the in-order stage has stopped.
func (p *decodePool) chunk() bool {
	if p.cur != nil {
		return true
	}
	select {
	case <-p.quit:
		return false
	default:
	}
	select {
	case p.cur = <-p.free:
		return true
	case <-p.quit:
		return false
	}
}

// send hands the chunk being cut to the workers and the in-order stage
// (neither channel can be full: each holds at most every chunk there is),
// or decodes and publishes it with the only decoder.
func (p *decodePool) send() {
	c := p.cur
	p.cur = nil
	if p.inline != nil {
		p.decodeChunk(p.inline, c)
		p.settle(c)
		return
	}
	p.order <- c
	p.work <- c
}

// cut takes one read page: the lines it completes go out as one chunk (a
// line that straddles pages is assembled in tail first), the rest waits in
// tail. A line longer than maxLineBytes is discarded, counted as one decode
// error, rather than terminating the source, honouring the contract that bad
// input never stops ingestion; tail holds at most maxLineBytes of it. cut
// returns false once the in-order stage has stopped.
func (p *decodePool) cut(page []byte) bool {
	if !p.chunk() {
		return false
	}
	c := p.cur
	if i := bytes.IndexByte(page, '\n'); i >= 0 {
		switch {
		case p.discardTo:
			p.discardTo = false // the over-long line this ends is already counted
		case len(p.tail) > 0:
			c.buf = append(append(append(c.buf, p.tail...), page[:i]...), '\n')
			p.tail = p.tail[:0]
		default:
			c.buf = append(c.buf, page[:i+1]...)
		}
		page = page[i+1:]
		j := bytes.LastIndexByte(page, '\n')
		c.buf = append(c.buf, page[:j+1]...)
		page = page[j+1:]
	}
	if !p.discardTo {
		p.tail = append(p.tail, page...)
		if len(p.tail) > maxLineBytes {
			c.overLong = true
			p.discardTo = true
			p.tail = nil
		}
	}
	if len(c.buf) > 0 || c.overLong {
		p.send()
	}
	return true
}

// finish handles end of stream: a trailing unterminated line is decoded.
func (p *decodePool) finish() {
	if len(p.tail) > 0 && p.chunk() {
		p.cur.buf = append(p.cur.buf, p.tail...)
		p.tail = nil
		p.send()
	}
}

// read cuts r into the pool until EOF (decoding an unterminated last line),
// ctx is cancelled or a read fails. It returns nil early if the in-order
// stage stops.
func (p *decodePool) read(ctx context.Context, r io.Reader) error {
	page := make([]byte, pageBytes)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := r.Read(page)
		if n > 0 && !p.cut(page[:n]) {
			return nil
		}
		if err == io.EOF {
			p.finish()
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// follow tails r: it cuts complete lines as they appear, holding back a
// trailing partial line until its newline arrives (a half-written record
// must not reach the codec). At each EOF the batcher is flushed once the
// chunks in flight are in, so follow-mode latency is bounded by the poll
// interval; r is then re-polled until ctx is cancelled. It returns nil
// early if the in-order stage stops.
func (p *decodePool) follow(ctx context.Context, r io.Reader) error {
	page := make([]byte, pageBytes)
	ticker := time.NewTicker(followPollInterval) //saql:wallclock tail-follow polling cadence, not stream time
	defer ticker.Stop()
	for {
		n, err := r.Read(page)
		if n > 0 {
			if !p.cut(page[:n]) {
				return nil
			}
			continue
		}
		if err != nil && err != io.EOF {
			return err
		}
		// EOF: bound latency — the in-order stage flushes the batcher once
		// the chunks before are in — then wait for appended data or
		// cancellation.
		if !p.chunk() {
			return nil
		}
		p.cur.flush = true
		p.send()
		select {
		case <-ctx.Done():
			// The trailing partial line (if any) stays undecoded: it may be
			// half-written.
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// pump reads r through a decode pool of the decoders decs into b: until EOF,
// ctx is cancelled, a read fails or a submission fails, or — with follow —
// until ctx is cancelled, polling at EOF. Every goroutine it starts has
// exited when it returns; a submission error takes precedence.
func (s *Source) pump(ctx context.Context, r io.Reader, decs []codec.Decoder, b *batcher, follow bool) error {
	p := startPool(decs, b, &s.ctr, s.cfg.OnError)
	var err error
	if follow {
		err = p.follow(ctx, r)
	} else {
		err = p.read(ctx, r)
	}
	if perr := p.stop(); perr != nil {
		return perr
	}
	return err
}

// drain flushes the decoders' buffered state (end of one stream), once no
// worker runs them.
func drain(decs []codec.Decoder, b *batcher) error {
	for _, dec := range decs {
		if err := b.add(dec.Flush()); err != nil {
			return err
		}
	}
	return nil
}
