package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func pts1d(vals ...float64) [][]float64 {
	out := make([][]float64, len(vals))
	for i, v := range vals {
		out[i] = []float64{v}
	}
	return out
}

func TestDistances(t *testing.T) {
	a, b := []float64{0, 0}, []float64{3, 4}
	if d := Euclidean(a, b); d != 5 {
		t.Errorf("euclidean = %v", d)
	}
	if d := Manhattan(a, b); d != 7 {
		t.Errorf("manhattan = %v", d)
	}
	if d := Chebyshev(a, b); d != 4 {
		t.Errorf("chebyshev = %v", d)
	}
	if d := Cosine([]float64{1, 0}, []float64{0, 1}); math.Abs(d-1) > 1e-12 {
		t.Errorf("cosine orthogonal = %v", d)
	}
	if d := Cosine([]float64{2, 2}, []float64{4, 4}); math.Abs(d) > 1e-12 {
		t.Errorf("cosine parallel = %v", d)
	}
	if d := Cosine([]float64{0, 0}, []float64{1, 1}); d != 1 {
		t.Errorf("cosine zero vector = %v", d)
	}
	if d := Cosine([]float64{0, 0}, []float64{0, 0}); d != 0 {
		t.Errorf("cosine both zero = %v", d)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"ed", "euclidean", "md", "manhattan", "cd", "chebyshev", "cos", "cosine"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("hamming"); err == nil {
		t.Error("unknown distance should fail")
	}
}

func TestDBSCANOutlier(t *testing.T) {
	// Paper Query 4 shape: peer IPs transfer ~50KB; one transfers 50MB.
	points := pts1d(50000, 50100, 50200, 49900, 50050, 5e7)
	res, err := DBSCAN(points, 100000, 3, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 1 {
		t.Errorf("clusters = %d, want 1", res.Clusters)
	}
	for i := 0; i < 5; i++ {
		if res.Outlier[i] {
			t.Errorf("point %d wrongly flagged", i)
		}
	}
	if !res.Outlier[5] {
		t.Error("exfiltration point not flagged")
	}
	if res.Labels[5] != Noise {
		t.Errorf("outlier label = %d, want Noise", res.Labels[5])
	}
	if res.Size(0) != 5 {
		t.Errorf("cluster 0 size = %d", res.Size(0))
	}
}

func TestDBSCANTwoClusters(t *testing.T) {
	points := pts1d(1, 2, 3, 100, 101, 102, 500)
	res, err := DBSCAN(points, 5, 2, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 2 {
		t.Errorf("clusters = %d, want 2", res.Clusters)
	}
	if res.Labels[0] == res.Labels[3] {
		t.Error("separate clusters merged")
	}
	if !res.Outlier[6] {
		t.Error("isolated point not noise")
	}
}

func TestDBSCANBorderPoint(t *testing.T) {
	// 0 and 2 are within eps of 1; 1 is core (3 neighbours incl. itself).
	// 0 and 2 are border points: assigned to the cluster, not noise.
	points := pts1d(0, 1, 2)
	res, err := DBSCAN(points, 1, 3, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outlier {
		if o {
			t.Errorf("point %d flagged, want all clustered", i)
		}
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	points := pts1d(0, 100, 200, 300)
	res, err := DBSCAN(points, 1, 2, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 0 {
		t.Errorf("clusters = %d", res.Clusters)
	}
	for i, o := range res.Outlier {
		if !o {
			t.Errorf("point %d not noise", i)
		}
	}
}

func TestDBSCANValidation(t *testing.T) {
	if _, err := DBSCAN(pts1d(1), 0, 1, nil); err == nil {
		t.Error("eps=0 should fail")
	}
	if _, err := DBSCAN(pts1d(1), 1, 0, nil); err == nil {
		t.Error("minPts=0 should fail")
	}
	if _, err := DBSCAN([][]float64{{1}, {1, 2}}, 1, 1, nil); err == nil {
		t.Error("ragged dimensions should fail")
	}
	res, err := DBSCAN(nil, 1, 1, nil)
	if err != nil || len(res.Labels) != 0 {
		t.Errorf("empty input: %v %v", res, err)
	}
}

func TestKMeansBasic(t *testing.T) {
	points := pts1d(1, 2, 3, 100, 101, 102)
	res, err := KMeans(points, 2, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[0] != res.Labels[1] || res.Labels[0] != res.Labels[2] {
		t.Error("low cluster split")
	}
	if res.Labels[3] != res.Labels[4] || res.Labels[3] != res.Labels[5] {
		t.Error("high cluster split")
	}
	if res.Labels[0] == res.Labels[3] {
		t.Error("clusters merged")
	}
}

func TestKMeansKClamp(t *testing.T) {
	res, err := KMeans(pts1d(1, 2), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 2 {
		t.Errorf("labels = %v", res.Labels)
	}
	if _, err := KMeans(pts1d(1), 0, nil); err == nil {
		t.Error("k=0 should fail")
	}
	empty, err := KMeans(nil, 2, nil)
	if err != nil || len(empty.Labels) != 0 {
		t.Errorf("empty kmeans: %v %v", empty, err)
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("dbscan", []float64{10, 2}, pts1d(1, 2, 3), nil); err != nil {
		t.Errorf("dbscan dispatch: %v", err)
	}
	if _, err := Run("kmeans", []float64{2}, pts1d(1, 2, 3), nil); err != nil {
		t.Errorf("kmeans dispatch: %v", err)
	}
	if _, err := Run("dbscan", []float64{10}, pts1d(1), nil); err == nil {
		t.Error("dbscan with 1 param should fail")
	}
	if _, err := Run("kmeans", nil, pts1d(1), nil); err == nil {
		t.Error("kmeans without params should fail")
	}
	if _, err := Run("spectral", nil, pts1d(1), nil); err == nil {
		t.Error("unknown method should fail")
	}
}

// Property: DBSCAN labels are a partition — every point is either noise or
// in a cluster in [0, Clusters); and core points are never noise when they
// have >= minPts neighbours.
func TestDBSCANLabelRangeProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 || len(raw) > 200 {
			return true
		}
		points := make([][]float64, len(raw))
		for i, r := range raw {
			points[i] = []float64{float64(r)}
		}
		res, err := DBSCAN(points, 10, 3, Euclidean)
		if err != nil {
			return false
		}
		for i, l := range res.Labels {
			if l == Noise {
				if !res.Outlier[i] {
					return false
				}
				continue
			}
			if l < 0 || l >= res.Clusters || res.Outlier[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distances are symmetric and non-negative.
func TestDistanceProperties(t *testing.T) {
	dists := []Distance{Euclidean, Manhattan, Chebyshev, Cosine}
	f := func(a, b [4]int8) bool {
		av := []float64{float64(a[0]), float64(a[1]), float64(a[2]), float64(a[3])}
		bv := []float64{float64(b[0]), float64(b[1]), float64(b[2]), float64(b[3])}
		for _, d := range dists {
			ab, ba := d(av, bv), d(bv, av)
			if ab < -1e-12 || math.Abs(ab-ba) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkDBSCAN clusters the shape Query 4 produces — one point per
// destination, most in one dense cluster of ordinary transfer volumes, a few
// percent scattered far above it — at window sizes from a small site to a
// large one, 373 being the outlier query's close on the repo benchmark's
// hot-state workload. The dense cluster is the worst case for neighbour-list
// growth: nearly every point is within eps of nearly every other. Each size
// runs through one reused Scratch, as a query's closes do, so it allocates
// nothing. Medians of five alternated runs on 2 cores, µs, before → after the
// line sort became a radix sort and the scratch began to be reused: 100
// points 8.2 → 6.9, 373 36.6 → 21.2, 1k 144 → 54, 10k 2,161 → 645; allocs
// 7 → 0.
func BenchmarkDBSCAN(b *testing.B) {
	for _, n := range []int{100, 373, 1000, 10000} {
		rng := rand.New(rand.NewSource(4))
		points := make([][]float64, n)
		for i := range points {
			v := 50000 + rng.NormFloat64()*20000
			if rng.Intn(20) == 0 {
				v = rng.Float64() * 5e7
			}
			points[i] = []float64{v}
		}
		b.Run(map[int]string{100: "100", 373: "373", 1000: "1k", 10000: "10k"}[n], func(b *testing.B) {
			var s Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.DBSCAN(points, 100000, 3, Euclidean); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
