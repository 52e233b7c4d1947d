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
	"os"
	"slices"
	"strconv"
	"testing"
	"time"
)

var diffMetrics = []struct {
	name string
	dist Distance
}{
	{"ed", Euclidean}, {"md", Manhattan}, {"cd", Chebyshev}, {"cos", Cosine},
	// A caller's own metric is never assumed ordered on the line.
	{"wrapped-ed", func(a, b []float64) float64 { return Euclidean(a, b) }},
}

// checkAgainstRef runs both implementations and reports any difference.
func checkAgainstRef(t testing.TB, label string, points [][]float64, eps float64, minPts int, dist Distance) {
	t.Helper()
	want, wantErr := dbscanRef(points, eps, minPts, dist)
	got, gotErr := DBSCAN(points, eps, minPts, dist)
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
	for l := Noise; l <= want.Clusters; l++ {
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

func TestDBSCANMatchesReference(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		points [][]float64
		eps    []float64
	}{
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
	// clustered reals, in one and two dimensions. One fixed seed and one
	// fresh one per run, logged; SAQL_CONFORMANCE_SEED reproduces a failure.
	seeds := []int64{15, time.Now().UnixNano()}
	if s := os.Getenv("SAQL_CONFORMANCE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SAQL_CONFORMANCE_SEED %q: %v", s, err)
		}
		seeds = []int64{v}
	}
	for _, seed := range seeds {
		t.Logf("random inputs seed = %d (set SAQL_CONFORMANCE_SEED=%d to reproduce)", seed, seed)
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
	})
}
