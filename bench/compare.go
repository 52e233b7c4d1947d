package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// spread is a sample's inter-quartile distance as a share of its median.
func (s sample) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// compareFiles prints one row per end-to-end metric and workload: both
// values with their quartiles, how much worse b is than a as a share of
// a's value (negative: better), the bound, and a verdict. It refuses
// results that did not measure the same thing on the same kind of machine.
// The second result is how many rows moved beyond their bound either way.
func compareFiles(w io.Writer, pathA, pathB string) (beyond int, err error) {
	a, err := readSuite(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return 0, err
	}
	switch {
	case a.Env.NProc != b.Env.NProc || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS:
		return 0, fmt.Errorf("not comparable: nproc/GOMAXPROCS %d/%d against %d/%d", a.Env.NProc, a.Env.GOMAXPROCS, b.Env.NProc, b.Env.GOMAXPROCS)
	case a.Seed != b.Seed || a.Corpus != b.Corpus:
		return 0, fmt.Errorf("not comparable: seed %d corpus %s against seed %d corpus %s", a.Seed, a.Corpus.EventsHash, b.Seed, b.Corpus.EventsHash)
	case a.Seconds != b.Seconds:
		return 0, fmt.Errorf("not comparable: %g s per run against %g s", a.Seconds, b.Seconds)
	}
	fmt.Fprintf(w, "a: %s (commit %s)\nb: %s (commit %s)\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	fmt.Fprintf(w, "%-22s %-10s %-9s %12s %-25s %12s %-25s %8s %6s  %s\n",
		"metric", "workload", "unit", "a", "a q1..q3 (n)", "b", "b q1..q3 (n)", "worse", "bound", "verdict")
	for _, d := range endToEnd {
		for _, sc := range scenarios {
			wa, wb := a.Workloads[sc.Name], b.Workloads[sc.Name]
			if wa == nil || wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
				return beyond, fmt.Errorf("workload %s is missing from one side", sc.Name)
			}
			sa, sb := wa.EndToEnd.Metrics[d.Name], wb.EndToEnd.Metrics[d.Name]
			worse := (sb.Value - sa.Value) / sa.Value
			if d.Better == "higher" {
				worse = -worse
			}
			// One suite holds one run per side, so the spread available here is
			// the one across reps inside each run. A metric that takes a single
			// value per run (peak RSS) has none, and is judged by the bound alone.
			verdict := "unchanged"
			switch {
			case sa.spread() > d.Bound || sb.spread() > d.Bound:
				verdict = "unresolved (spread beyond the bound)"
			case worse > d.Bound:
				verdict = "WORSE"
				beyond++
			case worse < -d.Bound:
				verdict = "better"
				beyond++
			}
			fmt.Fprintf(w, "%-22s %-10s %-9s %12.6g %-25s %12.6g %-25s %+7.1f%% %5.0f%%  %s\n",
				d.Name, sc.Name, d.Unit,
				sa.Value, fmt.Sprintf("%.5g..%.5g (%d)", sa.Q1, sa.Q3, sa.N),
				sb.Value, fmt.Sprintf("%.5g..%.5g (%d)", sb.Q1, sb.Q3, sb.N),
				100*worse, 100*d.Bound, verdict)
		}
	}
	return beyond, nil
}

// repeatCheck runs the whole suite twice on the same code and seed: the
// benchmark's own bounds must hold between the two.
func repeatCheck(seed int64, seconds float64, outDir string) error {
	paths := [2]string{filepath.Join(outDir, "repeat-a.json"), filepath.Join(outDir, "repeat-b.json")}
	for _, path := range paths {
		res, err := runSuite(seed, seconds, outDir)
		if err != nil {
			return err
		}
		if !res.correct() {
			res.print(os.Stdout)
			return fmt.Errorf("alerts differ from the serial reference, or events were lost")
		}
		if err := writeJSON(path, res); err != nil {
			return err
		}
	}
	beyond, err := compareFiles(os.Stdout, paths[0], paths[1])
	if err != nil {
		return err
	}
	if beyond > 0 {
		return fmt.Errorf("%d end-to-end rows differ by more than their bound between two runs of the same code", beyond)
	}
	return nil
}
