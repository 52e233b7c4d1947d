package event

import "time"

// Watermark is a stream's watermark: the latest event time it has shown. The
// serial fold, the router and a restore all judge lateness against it, so a
// query resumed or registered mid-stream starts at the stream's time.
type Watermark struct {
	ns int64 // unix nanoseconds; meaningful once ok
	ok bool
}

// Through observes t, an event's time, and returns the watermark through
// that event: the latest time seen so far — t itself, when that is t.
//
//saql:hotpath
func (w *Watermark) Through(t time.Time) time.Time {
	if ns := t.UnixNano(); !w.ok || ns >= w.ns {
		w.ns, w.ok = ns, true
		return t
	}
	return time.Unix(0, w.ns)
}

// Time returns the watermark, and false before the stream showed any event.
func (w Watermark) Time() (time.Time, bool) { return time.Unix(0, w.ns), w.ok }
