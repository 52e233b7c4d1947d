package cluster

import "fmt"

// dbscanRef is DBSCAN as it stood before the sorted-neighbourhood rewrite,
// kept verbatim (name aside) as the oracle for the differential tests: an
// O(n²) neighbour scan per visited point and a queue that re-appends every
// core point's whole neighbour list.
//
// It clusters points with parameters eps (neighbourhood radius) and
// minPts (minimum neighbourhood size, inclusive of the point itself, to
// form a core point). Points labelled Noise are outliers.
//
// The implementation is the standard region-growing algorithm with an
// O(n²) neighbourhood scan, which is appropriate for the per-window group
// counts SAQL clusters (one point per group-by key, typically tens to a few
// thousands).
func dbscanRef(points [][]float64, eps float64, minPts int, dist Distance) (*Result, error) {
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
	n := len(points)
	const unvisited = -2
	labels := make([]int, n)
	for i := range labels {
		labels[i] = unvisited
	}

	neighbours := func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			if dist(points[i], points[j]) <= eps {
				out = append(out, j)
			}
		}
		return out
	}

	cluster := 0
	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		nb := neighbours(i)
		if len(nb) < minPts {
			labels[i] = Noise
			continue
		}
		// Start a new cluster and grow it.
		labels[i] = cluster
		queue := append([]int(nil), nb...)
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			if labels[j] == Noise {
				labels[j] = cluster // border point
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = cluster
			jnb := neighbours(j)
			if len(jnb) >= minPts {
				queue = append(queue, jnb...)
			}
		}
		cluster++
	}

	out := &Result{Labels: labels, Outlier: make([]bool, n), Clusters: cluster}
	for i, l := range labels {
		out.Outlier[i] = l == Noise
	}
	return out, nil
}
