package cluster

// Differential fence for DBSCAN: the sorted-neighbourhood and enqueue-once
// implementations must label every input exactly as the retained O(n²)
// oracle (dbscan_ref_test.go) does — same core points, same cluster
// numbering, same border ownership, same noise.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"saql/internal/conformance"
)

var diffMetrics = []struct {
	name string
	dist Distance
}{
	{"ed", Euclidean}, {"md", Manhattan}, {"cd", Chebyshev}, {"cos", Cosine},
	// A caller's own metric is never assumed ordered on the line.
	{"wrapped-ed", func(a, b []float64) float64 { return Euclidean(a, b) }},
}

// checkAgainstRef runs both implementations, DBSCAN on a fresh Scratch, and
// reports any difference.
func checkAgainstRef(t testing.TB, label string, points [][]float64, eps float64, minPts int, dist Distance) {
	t.Helper()
	checkScratchAgainstRef(t, label, new(Scratch), points, eps, minPts, dist)
}

// checkScratchAgainstRef holds s's DBSCAN to the oracle: labels, outlier
// flags and cluster count, and every label's size — zero for a label past
// the last cluster, whatever a previous result in s held.
func checkScratchAgainstRef(t testing.TB, label string, s *Scratch, points [][]float64, eps float64, minPts int, dist Distance) {
	t.Helper()
	want, wantErr := dbscanRef(points, eps, minPts, dist)
	got, gotErr := s.DBSCAN(points, eps, minPts, dist)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: got %v, want %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got.Clusters != want.Clusters || !slices.Equal(got.Labels, want.Labels) || !slices.Equal(got.Outlier, want.Outlier) {
		t.Fatalf("%s: eps=%v minPts=%d points=%v\n  got  %d clusters %v\n  want %d clusters %v",
			label, eps, minPts, points, got.Clusters, got.Labels, want.Clusters, want.Labels)
	}
	for l := Noise; l <= want.Clusters+2; l++ {
		n := 0
		for _, wl := range want.Labels {
			if wl == l {
				n++
			}
		}
		if got.Size(l) != n {
			t.Fatalf("%s: Size(%d) = %d, want %d", label, l, got.Size(l), n)
		}
	}
}

// dbscanCase is one clustering input, run at each of its radii.
type dbscanCase struct {
	name   string
	points [][]float64
	eps    []float64
}

func TestDBSCANMatchesReference(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []dbscanCase{
		{"empty", nil, []float64{1}},
		{"single", pts1d(7), []float64{1}},
		{"duplicates", pts1d(5, 5, 5, 5, 1, 1, 9), []float64{0.5, 4, 8}},
		{"exactly-eps-apart", pts1d(0, 1, 2, 3, 5, 6, 8), []float64{1, 2}},
		{"all-noise", pts1d(0, 100, 200, 300, 400), []float64{1, 99}},
		{"one-dense-cluster", pts1d(10, 11, 12, 13, 14, 15, 16, 17), []float64{1.5, 100}},
		// 10 sits within eps of a core point on each side: it goes to the
		// cluster whose lowest-index core point comes first in the input,
		// which is the right-hand one here.
		{"border-between-two", pts1d(20, 19, 18, 10, 0, 1, 2), []float64{8, 9}},
		{"border-chain", pts1d(0, 3, 6, 9, 12, 4, 4, 4), []float64{3}},
		{"unsorted-clusters", pts1d(500, 1, 101, 2, 102, 3, 100, -40, 501, 502), []float64{2, 5}},
		{"nan-and-inf", pts1d(1, nan, 2, inf, 3, -inf, nan, inf, 2.5), []float64{1, 10, inf}},
		{"all-nan", pts1d(nan, nan, nan), []float64{1}},
		{"huge-magnitudes", pts1d(1e308, -1e308, 1e308, 9e307, 1e154, 2e154, -1e154), []float64{1e307, 1e154, 1.7e308}},
		{"tiny-magnitudes", pts1d(0, 1e-180, 2e-180, 1e-200, 5e-324, 1e-160), []float64{1e-200, 1e-180, 5e-324}},
		{"nan-eps", pts1d(1, 2, 3), []float64{nan}},
		{"2d-blobs", [][]float64{{0, 0}, {0, 1}, {1, 0}, {10, 10}, {10, 11}, {11, 10}, {5, 5}, {0, 0}}, []float64{1, 1.5, 8}},
		{"2d-nan", [][]float64{{0, 0}, {nan, 1}, {0, 1}, {inf, inf}, {1, 1}}, []float64{1.5}},
		{"cosine-signs", pts1d(3, 1, 0, -2, -5, 0, 7), []float64{0.5, 1, 2}},
		// The line sort's corner cases. Its keys order −0 before +0, which
		// tie; subnormals differ only in their low key bytes, negative
		// coordinates sort only once their keys are flipped, and huge
		// magnitudes of both signs differ in the exponent bytes.
		{"signed-zeros", pts1d(0, negZero, 0, negZero, 1e-300, -1e-300, 5, -5, negZero), []float64{1e-300, 1, 5}},
		{"subnormals", pts1d(3*tiny, 0, tiny, -tiny, 7*tiny, 2*tiny, -3*tiny, negZero, 1e-310, -1e-310, 2.225073858507201e-308),
			[]float64{tiny, 2 * tiny, 1e-310}},
		{"negatives", pts1d(-1, -2, -3, -50, -51, -52, -1000, 3, -0.5, -2, -1000.5, -7), []float64{1, 2, 45}},
		{"mixed-sign-magnitudes", pts1d(1e300, -1e300, 1.5e300, -1.5e300, 1e-300, -1e-300, 4e299, -4e299, 1e300, 0),
			[]float64{5e299, 1e300, 1e-300}},
		{"duplicates-mixed-sign", pts1d(-4, 4, -4, 4, -4, 0, negZero, 0, 4, -4), []float64{0.5, 4, 8}},
	}
	// Coordinates that differ in one key byte alone, for each byte a
	// mantissa step can reach, either sign: a sort pass skipped on that byte
	// misorders them.
	for shift := 0; shift <= 48; shift += 8 {
		for _, base := range []float64{1, -1} {
			points := byteSteps(base, shift, 0, 1, 2, 3, 9, 10, 11, 40, 200, 201, 202, 90, 1)
			step := math.Abs(byteSteps(base, shift, 1)[0][0] - base)
			cases = append(cases, dbscanCase{fmt.Sprintf("byte-steps-%d-from-%g", shift, base), points, []float64{step, 1.5 * step, 2.5 * step}})
		}
	}
	for _, c := range cases {
		for _, m := range diffMetrics {
			for _, eps := range c.eps {
				for _, minPts := range []int{1, 2, 3, len(c.points), len(c.points) + 1} {
					if minPts < 1 {
						continue
					}
					checkAgainstRef(t, fmt.Sprintf("%s/%s", c.name, m.name), c.points, eps, minPts, m.dist)
				}
			}
		}
	}

	// Seeded random inputs: integer grids (many ties and exact-eps pairs) and
	// clustered reals, in one and two dimensions, at a fixed seed and the
	// fresh one; then one Scratch reused across shrinking and growing ones.
	for _, sd := range conformance.Seeds(t, 15) {
		seed := sd.Value
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 400; round++ {
			n := 1 + rng.Intn(60)
			dim := 1 + rng.Intn(2)
			points := make([][]float64, n)
			for i := range points {
				points[i] = make([]float64, dim)
				for d := range points[i] {
					switch round % 3 {
					case 0:
						points[i][d] = float64(rng.Intn(40))
					case 1:
						points[i][d] = float64(rng.Intn(4))*100 + rng.NormFloat64()*3
					default:
						points[i][d] = rng.NormFloat64() * 10
					}
				}
			}
			eps := []float64{1, 2, 3.5, 10}[rng.Intn(4)]
			minPts := 1 + rng.Intn(6)
			m := diffMetrics[rng.Intn(len(diffMetrics))]
			checkAgainstRef(t, fmt.Sprintf("seed-%d-round-%d/%s", seed, round, m.name), points, eps, minPts, m.dist)
		}
		scratchReuseRounds(t, fmt.Sprintf("seed-%d", seed), rng)
	}
}

var (
	negZero = math.Copysign(0, -1)
	tiny    = math.SmallestNonzeroFloat64
)

// byteSteps returns one-dimensional points whose bits are base's plus
// k<<shift for each k, moving away from zero: coordinates whose sort keys
// differ in the bytes from shift up alone.
func byteSteps(base float64, shift int, ks ...int) [][]float64 {
	out := make([][]float64, len(ks))
	for i, k := range ks {
		out[i] = []float64{math.Float64frombits(math.Float64bits(base) + uint64(k)<<shift)}
	}
	return out
}

// scratchReuseRounds runs one Scratch over problems that shrink and grow —
// sizes drawn at random, every few a single point or none — and holds each
// result to the oracle: a larger previous result must leak no label, outlier
// flag or cluster size into a smaller one.
func scratchReuseRounds(t *testing.T, label string, rng *rand.Rand) {
	var s Scratch
	for round := 0; round < 300; round++ {
		n := rng.Intn(200)
		if round%7 == 0 {
			n = rng.Intn(2)
		}
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{float64(rng.Intn(4))*100 + rng.NormFloat64()*float64(1+rng.Intn(30))}
			if rng.Intn(10) == 0 {
				points[i][0] = -points[i][0]
			}
		}
		m := diffMetrics[rng.Intn(3)] // the line path's metrics
		if round%5 == 0 {
			m = diffMetrics[3+rng.Intn(2)] // and the scan's
		}
		eps := []float64{1, 3, 10, 60}[rng.Intn(4)]
		checkScratchAgainstRef(t, fmt.Sprintf("%s/reuse-round-%d/%s/n=%d", label, round, m.name, n), &s, points, eps, 1+rng.Intn(5), m.dist)
	}
}

// FuzzDBSCANDifferential decodes a byte string into a clustering problem and
// holds DBSCAN to the oracle. The first bytes pick metric, dimension, minPts,
// eps and the coordinate encoding; the rest are coordinates, either raw
// float64 bits (NaN, ±Inf, subnormals, huge magnitudes) or small integers
// (ties and pairs exactly eps apart).
func FuzzDBSCANDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 3, 2, 1, 0, 1, 2, 10, 11, 12, 30})
	f.Add([]byte{1, 0, 2, 5, 1, 9, 4, 4, 4, 0, 0, 8, 8, 8})
	f.Add([]byte{3, 1, 2, 1, 1, 1, 1, 1, 2, 9, 9, 9, 8})
	f.Add(append([]byte{0, 0, 1, 200, 0}, binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), math.Float64bits(math.Inf(1)))...))
	// Raw coordinates for the line sort: −0 beside +0 and duplicates,
	// subnormals, negatives, huge magnitudes of both signs.
	raw := func(eps float64, coords ...float64) []byte {
		b := []byte{0, 0, 1, 0, 1}
		for _, c := range append([]float64{eps}, coords...) {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
		}
		return b
	}
	f.Add(raw(1e-300, 0, negZero, 0, negZero, 1e-300, -1e-300, 5))
	f.Add(raw(tiny, 3*tiny, 0, tiny, -tiny, 2*tiny, -3*tiny, negZero))
	f.Add(raw(2, -1, -2, -3, -50, -51, -52, 3, -2, -1000))
	f.Add(raw(5e299, 1e300, -1e300, 1.5e300, -1.5e300, 4e299, -4e299, 1e300))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		m := diffMetrics[int(data[0])%len(diffMetrics)]
		dim := 1 + int(data[1])%2
		minPts := 1 + int(data[2])%8
		eps := float64(data[3]) / 4
		raw := data[4]%2 == 1
		data = data[5:]
		var coords []float64
		if raw {
			for ; len(data) >= 8 && len(coords) < 128; data = data[8:] {
				coords = append(coords, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
			if len(coords) > 0 {
				// Let the radius be as strange as the coordinates.
				eps = math.Abs(coords[0])
				coords = coords[1:]
			}
		} else {
			for _, b := range data[:min(len(data), 256)] {
				coords = append(coords, float64(b)/4)
			}
		}
		points := make([][]float64, 0, len(coords)/dim)
		for ; len(coords) >= dim; coords = coords[dim:] {
			points = append(points, coords[:dim:dim])
		}
		checkAgainstRef(t, m.name, points, eps, minPts, m.dist)
		// One scratch across calls: the problem, then a shrunk one, then the
		// problem again.
		var s Scratch
		checkScratchAgainstRef(t, m.name+"/reused", &s, points, eps, minPts, m.dist)
		checkScratchAgainstRef(t, m.name+"/reused-shrunk", &s, points[:len(points)/2], eps, minPts, m.dist)
		checkScratchAgainstRef(t, m.name+"/reused-grown", &s, points, eps, minPts, m.dist)
	})
}
