// Package cluster implements the clustering algorithms behind SAQL's
// outlier-based anomaly model: DBSCAN (the method used by the paper's
// Query 4) and k-means as an ablation alternative, over arbitrary-dimension
// points with pluggable distance metrics (euclidean "ed", manhattan "md",
// chebyshev "cd", cosine "cos").
package cluster

import (
	"fmt"
	"math"
	"reflect"
)

// Distance computes the distance between two points of equal dimension.
type Distance func(a, b []float64) float64

// Euclidean is the L2 distance ("ed" in SAQL cluster specs).
func Euclidean(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Manhattan is the L1 distance ("md").
func Manhattan(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Chebyshev is the L∞ distance ("cd").
func Chebyshev(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Cosine is the cosine distance 1 - cos(a, b) ("cos"). Zero vectors are at
// distance 1 from everything except another zero vector.
func Cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 && nb == 0 {
		return 0
	}
	if na == 0 || nb == 0 {
		return 1
	}
	c := dot / (math.Sqrt(na) * math.Sqrt(nb))
	// Clamp for floating error.
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return 1 - c
}

// ByName resolves a SAQL distance name to a Distance.
func ByName(name string) (Distance, error) {
	switch name {
	case "ed", "euclidean":
		return Euclidean, nil
	case "md", "manhattan":
		return Manhattan, nil
	case "cd", "chebyshev":
		return Chebyshev, nil
	case "cos", "cosine":
		return Cosine, nil
	default:
		return nil, fmt.Errorf("cluster: unknown distance %q", name)
	}
}

// Noise is the label DBSCAN assigns to outlier points.
const Noise = -1

// Result labels each input point. Labels[i] is the cluster id of point i
// (>= 0) or Noise. Outlier[i] is the SAQL-facing outlier flag.
type Result struct {
	Labels   []int
	Outlier  []bool
	Clusters int // number of clusters found (excluding noise)

	sizes []int // points per cluster
	noise int   // points labelled Noise
}

// Size returns the number of points labelled label: a cluster's size, or for
// Noise the number of noise points.
func (r *Result) Size(label int) int {
	switch {
	case label == Noise:
		return r.noise
	case label >= 0 && label < len(r.sizes):
		return r.sizes[label]
	}
	return 0
}

// Scratch is reusable storage for DBSCAN and Run: the labels, outlier flags
// and cluster sizes of the Result they return, and the one-dimensional path's
// sort order, sort keys, neighbourhood spans and cluster renumbering. A zero
// Scratch is ready to use. The Result a Scratch returns is its own: valid
// until the Scratch's next call, which overwrites it. A Scratch is not safe
// for concurrent use.
type Scratch struct {
	res     Result
	labels  []int
	outlier []bool
	sizes   []int
	// order and keys hold the line path's points by coordinate: point
	// indices and their sort keys (lineKey), each with the radix sort's
	// second buffer.
	order, orderTmp []int
	keys, keysTmp   []uint64
	span            []int // neighbourhood bounds by sorted position
	number          []int // provisional cluster -> final number
	nb, queue       []int // the scan's neighbour list and growth queue
}

// DBSCAN clusters points with parameters eps (neighbourhood radius) and
// minPts (minimum neighbourhood size, inclusive of the point itself, to
// form a core point). Points labelled Noise are outliers. It runs on a fresh
// Scratch; a caller clustering again and again keeps one and calls its
// DBSCAN.
func DBSCAN(points [][]float64, eps float64, minPts int, dist Distance) (*Result, error) {
	return new(Scratch).DBSCAN(points, eps, minPts, dist)
}

// DBSCAN is the package's DBSCAN in s's storage: its Result is valid until
// s's next call.
//
// The labelling is a function of the points' neighbour sets and input order
// alone: the core points are those with at least minPts neighbours; clusters
// are the density-connected components of core points, numbered by their
// lowest-index core point; a non-core point within eps of a core point
// belongs to the lowest-numbered cluster that has one there, and every other
// point is Noise. How the neighbour sets are found depends on the input.
// One-dimensional points under a metric that is |a−b| there (ed, md, cd)
// with finite coordinates and radius are sorted once (a radix sort, O(n) for
// a fixed key width), which makes every neighbourhood a contiguous run and
// every cluster an interval: O(n) time and space after the sort. Anything
// else gets region growth over an O(n) scan per point, O(n²) in all.
func (s *Scratch) DBSCAN(points [][]float64, eps float64, minPts int, dist Distance) (*Result, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("cluster: DBSCAN eps must be positive, got %g", eps)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("cluster: DBSCAN minPts must be >= 1, got %d", minPts)
	}
	if dist == nil {
		dist = Euclidean
	}
	if err := checkDims(points); err != nil {
		return nil, err
	}
	s.labels = resize(s.labels, len(points))
	var clusters int
	if eps < math.Inf(1) && orderedOnLine(dist) && finiteLine(points) {
		clusters = s.dbscanLine(points, eps, minPts, dist, s.labels)
	} else {
		clusters = s.dbscanScan(points, eps, minPts, dist, s.labels)
	}
	return s.result(s.labels, clusters), nil
}

// resize returns a slice of length n over buf's array when it is large
// enough, else a new one: what it holds is the caller's to overwrite.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// finiteLine reports whether points are one-dimensional with no NaN or ±Inf
// among them. Only then is every point its own neighbour and distance
// monotone along the line: a metric meets NaN as it pleases (cd is at
// distance 0 from it), and ∞−∞ is NaN again.
func finiteLine(points [][]float64) bool {
	for _, p := range points {
		if len(p) != 1 || math.IsNaN(p[0]) || math.IsInf(p[0], 0) {
			return false
		}
	}
	return true
}

// orderedOnLine reports whether dist is one of the built-in metrics that
// reduce to |a−b| on one-dimensional points, so that dist(a, b) never
// decreases as b moves away from a along the line. Function values compare
// by code pointer: a caller's own metric, even one wrapping a built-in, is
// not assumed ordered.
func orderedOnLine(dist Distance) bool {
	p := reflect.ValueOf(dist).Pointer()
	return p == reflect.ValueOf(Euclidean).Pointer() ||
		p == reflect.ValueOf(Manhattan).Pointer() ||
		p == reflect.ValueOf(Chebyshev).Pointer()
}

// lineKey maps a finite coordinate to a uint64 whose unsigned order is the
// coordinate's: a non-negative float's bits with the sign bit set, a
// negative one's bits all flipped. −0 sorts just before +0, which ties with
// it; tie order cannot change the labels, since equal coordinates have equal
// neighbourhoods.
func lineKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortLine returns the indices of one-dimensional points in ascending
// coordinate order: an LSD radix sort of their lineKeys a byte at a time,
// skipping every byte that is the same for all points.
//
//saql:hotpath
func (s *Scratch) sortLine(points [][]float64) []int {
	n := len(points)
	order, keys := resize(s.order, n), resize(s.keys, n)
	tmpOrder, tmpKeys := resize(s.orderTmp, n), resize(s.keysTmp, n)
	var varies uint64 // the bits in which some key differs from the first
	for i, p := range points {
		order[i], keys[i] = i, lineKey(p[0])
		varies |= keys[i] ^ keys[0]
	}
	for shift := 0; shift < 64; shift += 8 {
		if (varies>>shift)&0xff == 0 {
			continue
		}
		var at [256]int
		for _, k := range keys {
			at[(k>>shift)&0xff]++
		}
		sum := 0
		for d, c := range at {
			at[d] = sum
			sum += c
		}
		for i, k := range keys {
			d := (k >> shift) & 0xff
			tmpOrder[at[d]], tmpKeys[at[d]] = order[i], k
			at[d]++
		}
		order, tmpOrder = tmpOrder, order
		keys, tmpKeys = tmpKeys, keys
	}
	s.order, s.keys, s.orderTmp, s.keysTmp = order, keys, tmpOrder, tmpKeys
	return order
}

// dbscanLine labels finite one-dimensional points under a metric ordered on
// the line and a finite eps, and returns the cluster count. It calls dist itself
// rather than subtracting coordinates, so overflow and underflow inside the
// metric decide neighbourhoods exactly as they do for the scan.
//
//saql:hotpath
func (s *Scratch) dbscanLine(points [][]float64, eps float64, minPts int, dist Distance, labels []int) int {
	order := s.sortLine(points)
	for i := range labels {
		labels[i] = Noise
	}
	m := len(order)
	near := func(a, b int) bool { return dist(points[order[a]], points[order[b]]) <= eps }

	// Neighbourhood of the k-th point in sorted order: positions [lo[k],
	// hi[k]). dist is monotone along the line, so both ends only move right
	// as k does, and k itself is always inside.
	s.span = resize(s.span, 2*m)
	lo, hi := s.span[:m], s.span[m:]
	for k, l, h := 0, 0, 0; k < m; k++ {
		for !near(k, l) {
			l++
		}
		h = max(h, k+1)
		for h < m && near(k, h) {
			h++
		}
		lo[k], hi[k] = l, h
	}

	// Core points, left to right: a core point within eps of the previous
	// core point continues its cluster, any other starts one. Clusters are
	// numbered provisionally in coordinate order.
	runs := 0
	for k, last := 0, -1; k < m; k++ {
		if hi[k]-lo[k] < minPts {
			continue
		}
		if last < lo[k] {
			runs++
		}
		labels[order[k]] = runs - 1
		last = k
	}
	if runs == 0 {
		return 0
	}
	// Renumber by lowest-index core point (only core points are labelled).
	number := resize(s.number, runs)
	s.number = number
	for i := range number {
		number[i] = Noise
	}
	clusters := 0
	for i, l := range labels {
		if l == Noise {
			continue
		}
		if number[l] == Noise {
			number[l] = clusters
			clusters++
		}
		labels[i] = number[l]
	}
	// Border points: all core points within eps on one side belong to one
	// cluster, so the nearest core point on each side stands for them; the
	// lower-numbered of the two owns the point.
	for k, last := 0, -1; k < m; k++ {
		if hi[k]-lo[k] >= minPts {
			last = k
		} else if last >= lo[k] {
			labels[order[k]] = labels[order[last]]
		}
	}
	for k, next := m-1, m; k >= 0; k-- {
		if hi[k]-lo[k] >= minPts {
			next = k
		} else if next < hi[k] {
			if c, l := labels[order[next]], labels[order[k]]; l == Noise || c < l {
				labels[order[k]] = c
			}
		}
	}
	return clusters
}

// dbscanScan labels points of any dimension under any metric by region
// growth and returns the cluster count. A point enters the queue once, when
// it first joins a cluster, so the queue and the neighbour scratch are O(n).
//
//saql:hotpath
func (s *Scratch) dbscanScan(points [][]float64, eps float64, minPts int, dist Distance, labels []int) int {
	const unvisited = -2
	for i := range labels {
		labels[i] = unvisited
	}
	nb, queue := s.nb[:0], s.queue[:0]
	neighbours := func(i int) []int {
		nb = nb[:0]
		for j := range points {
			if dist(points[i], points[j]) <= eps {
				nb = append(nb, j)
			}
		}
		return nb
	}
	clusters := 0
	// claim gives the neighbours of a core point to the cluster being grown.
	// An unvisited one may be core itself and is queued for expansion; one
	// marked Noise is known not to be, and only becomes a border point.
	claim := func(nb []int) {
		for _, j := range nb {
			switch labels[j] {
			case unvisited:
				labels[j] = clusters
				queue = append(queue, j)
			case Noise:
				labels[j] = clusters
			}
		}
	}
	for i := range points {
		if labels[i] != unvisited {
			continue
		}
		seed := neighbours(i)
		if len(seed) < minPts {
			labels[i] = Noise
			continue
		}
		labels[i] = clusters
		queue = queue[:0]
		claim(seed)
		for head := 0; head < len(queue); head++ {
			if grown := neighbours(queue[head]); len(grown) >= minPts {
				claim(grown)
			}
		}
		clusters++
	}
	s.nb, s.queue = nb, queue
	return clusters
}

// result wraps final labels in s's Result, counting each cluster's points
// once. Every flag and size is written afresh, so nothing of a previous,
// larger result survives into it.
func (s *Scratch) result(labels []int, clusters int) *Result {
	s.outlier = resize(s.outlier, len(labels))
	s.sizes = resize(s.sizes, clusters)
	clear(s.sizes)
	s.res = Result{Labels: labels, Outlier: s.outlier, Clusters: clusters, sizes: s.sizes}
	r := &s.res
	for i, l := range labels {
		r.Outlier[i] = l == Noise
		if l == Noise {
			r.noise++
		} else {
			r.sizes[l]++
		}
	}
	return r
}

// KMeans clusters points into k clusters using Lloyd's algorithm with
// deterministic farthest-first seeding, then flags as outliers the points
// whose distance to their centroid exceeds mean + 3·stddev of all such
// distances. It is provided as the ablation comparator for DBSCAN in the
// outlier-model experiments.
func KMeans(points [][]float64, k int, dist Distance) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if dist == nil {
		dist = Euclidean
	}
	if err := checkDims(points); err != nil {
		return nil, err
	}
	n := len(points)
	if n == 0 {
		return &Result{}, nil
	}
	if k > n {
		k = n
	}
	dim := len(points[0])

	// Farthest-first seeding: deterministic and spread out.
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, append([]float64(nil), points[0]...))
	for len(centroids) < k {
		best, bestD := 0, -1.0
		for i, p := range points {
			d := math.Inf(1)
			for _, c := range centroids {
				if dd := dist(p, c); dd < d {
					d = dd
				}
			}
			if d > bestD {
				best, bestD = i, d
			}
		}
		centroids = append(centroids, append([]float64(nil), points[best]...))
	}

	labels := make([]int, n)
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := dist(p, cen); d < bestD {
					best, bestD = c, d
				}
			}
			if labels[i] != best {
				labels[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			c := labels[i]
			counts[c]++
			for d := 0; d < dim; d++ {
				sums[c][d] += p[d]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue
			}
			for d := 0; d < dim; d++ {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
		if !changed {
			break
		}
	}

	// Outliers: distance to own centroid > mean + 3σ.
	dists := make([]float64, n)
	var mean float64
	for i, p := range points {
		dists[i] = dist(p, centroids[labels[i]])
		mean += dists[i]
	}
	mean /= float64(n)
	var variance float64
	for _, d := range dists {
		variance += (d - mean) * (d - mean)
	}
	variance /= float64(n)
	sd := math.Sqrt(variance)

	out := new(Scratch).result(labels, k)
	for i, d := range dists {
		out.Outlier[i] = sd > 0 && d > mean+3*sd
	}
	return out, nil
}

// Run dispatches by method name ("dbscan" or "kmeans") with the numeric
// parameters from the SAQL cluster spec, on a fresh Scratch.
func Run(method string, params []float64, points [][]float64, dist Distance) (*Result, error) {
	return new(Scratch).Run(method, params, points, dist)
}

// Run is the package's Run with DBSCAN in s's storage: its Result is valid
// until s's next call. KMeans, the ablation comparator, allocates its own.
func (s *Scratch) Run(method string, params []float64, points [][]float64, dist Distance) (*Result, error) {
	switch method {
	case "dbscan":
		if len(params) != 2 {
			return nil, fmt.Errorf("cluster: DBSCAN requires (eps, minPts)")
		}
		return s.DBSCAN(points, params[0], int(params[1]), dist)
	case "kmeans":
		if len(params) != 1 {
			return nil, fmt.Errorf("cluster: KMEANS requires (k)")
		}
		return KMeans(points, int(params[0]), dist)
	default:
		return nil, fmt.Errorf("cluster: unknown method %q", method)
	}
}

func checkDims(points [][]float64) error {
	if len(points) == 0 {
		return nil
	}
	dim := len(points[0])
	if dim == 0 {
		return fmt.Errorf("cluster: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return fmt.Errorf("cluster: point %d has dimension %d, want %d", i, len(p), dim)
		}
	}
	return nil
}
