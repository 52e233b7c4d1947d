package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// sample is a reported metric: the median of its per-rep values (the Value
// that stands for the run), both quartiles and the count, so a reader can
// see how steady it was.
type sample struct {
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile is Python's statistics.quantiles "exclusive" method at p, the
// same rule the driver's spread check uses.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p*float64(n+1) - 1
	lo := int(math.Floor(pos))
	lo = min(max(lo, 0), n-2)
	frac := min(max(pos-float64(lo), 0), 1)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func summarize(unit string, vals []float64) sample {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := quantile(s, 0.5)
	return sample{Unit: unit, Value: m, Median: m, Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// one wraps a single measured value as a sample.
func one(unit string, v float64) sample { return summarize(unit, []float64{v}) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// percentile is the nearest-rank percentile of an unsorted slice.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// peakRSSMB reads this process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
