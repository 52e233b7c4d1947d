package codec

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// Event times outside years 0001–9999 are rejected by every timestamp path
// below. Nothing real carries one, and a single absurd value is not a
// harmless outlier: a far-future instant becomes the source's watermark,
// after which every genuine event is late (or, under StrictOrder, dropped)
// for the life of the source; and converting an out-of-range float to int64
// is implementation-defined, so 1e300 seconds decodes to a different garbage
// instant per architecture.
const (
	minUnixSec = -62135596800 // 0001-01-01T00:00:00Z
	maxUnixSec = 253402300800 // 10000-01-01T00:00:00Z, exclusive
)

// unixFloat converts fractional Unix seconds to a UTC time, rounding to
// microseconds so repeated encode/decode round-trips are stable.
func unixFloat(secs float64) (time.Time, error) {
	if !(secs >= minUnixSec && secs < maxUnixSec) { // negated so NaN fails too
		return time.Time{}, fmt.Errorf("timestamp %g outside years 0001-9999", secs)
	}
	sec := int64(secs)
	nsec := int64((secs - float64(sec)) * 1e9)
	return time.Unix(sec, nsec).UTC().Round(time.Microsecond), nil
}

// checkTimeRange applies the same bound to an already-parsed time (a string
// timestamp can leave it through year 0000 or a numeric zone offset).
func checkTimeRange(t time.Time) error {
	if s := t.Unix(); s < minUnixSec || s >= maxUnixSec {
		return fmt.Errorf("timestamp %s outside years 0001-9999", t.UTC().Format(time.RFC3339))
	}
	return nil
}

var errTimeType = errors.New("neither a string nor a number")

// timeFromString reads an RFC 3339 timestamp (fractional seconds allowed).
//
//saql:hotpath
func timeFromString(s []byte) (time.Time, error) {
	t, ok := parseRFC3339UTC(s)
	if !ok {
		var err error
		if t, err = time.Parse(time.RFC3339Nano, string(s)); err != nil {
			return time.Time{}, err
		}
	}
	return t, checkTimeRange(t)
}

// timeFromNumber reads a JSON number as Unix seconds (fraction allowed).
//
//saql:hotpath
func timeFromNumber(num []byte) (time.Time, error) {
	secs, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return time.Time{}, err
	}
	return unixFloat(secs)
}

// parseRFC3339UTC parses the one shape every shipper emits,
// YYYY-MM-DDTHH:MM:SS[.fraction]Z, to the time.Time that
// time.Parse(time.RFC3339Nano, s) returns for it (same instant, UTC
// location; fraction digits past the ninth are dropped, as there). ok is
// false for anything else — other zones, out-of-range fields, odd spellings
// — which the caller hands to time.Parse itself, so this function decides
// nothing about what is accepted.
//
//saql:hotpath
func parseRFC3339UTC(s []byte) (t time.Time, ok bool) {
	if len(s) < len("2006-01-02T15:04:05Z") || s[len(s)-1] != 'Z' ||
		s[4] != '-' || s[7] != '-' || s[10] != 'T' || s[13] != ':' || s[16] != ':' {
		return time.Time{}, false
	}
	year := digits2(s[0], s[1])*100 + digits2(s[2], s[3])
	month := digits2(s[5], s[6])
	day := digits2(s[8], s[9])
	hour := digits2(s[11], s[12])
	min := digits2(s[14], s[15])
	sec := digits2(s[17], s[18])
	if year < 0 || month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour < 0 || hour > 23 || min < 0 || min > 59 || sec < 0 || sec > 59 {
		return time.Time{}, false
	}
	nsec := 0
	if frac := s[19 : len(s)-1]; len(frac) > 0 {
		if frac[0] != '.' || len(frac) < 2 {
			return time.Time{}, false
		}
		scale := 100000000
		for _, c := range frac[1:] {
			if c < '0' || c > '9' {
				return time.Time{}, false
			}
			nsec += int(c-'0') * scale
			scale /= 10
		}
	}
	return time.Date(year, time.Month(month), day, hour, min, sec, nsec, time.UTC), true
}

// digits2 reads two ASCII digits; a negative result (which also makes any
// sum it is part of negative) means one of them was not a digit.
func digits2(a, b byte) int {
	if a < '0' || a > '9' || b < '0' || b > '9' {
		return -10000
	}
	return int(a-'0')*10 + int(b-'0')
}

func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}
