// Command bench is the repo's benchmark: four workloads (raw-cold,
// hot-state, durable, paced) over inputs generated from a seed, end-to-end
// metrics measured untraced, per-layer metrics from a traced pass, every
// rep checked against a serial reference. See README.md.
//
//	bash bench/run.sh -workload hot-state -seed 1 -seconds 30 -trace 0   one run (what the driver calls)
//	bash bench/run.sh -seed 1 -json bench/out/result.json                 every workload, untraced and traced
//	bash bench/run.sh -compare a.json b.json                              two result files side by side
//	bash bench/run.sh -check-repeat                                       the suite twice; fail beyond the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		workload    = flag.String("workload", "", "run this one workload in this process (raw-cold, hot-state, durable, paced); empty runs the whole suite")
		seed        = flag.Int64("seed", 1, "the only source of randomness: corpus, kill-chain placement, marker positions")
		seconds     = flag.Float64("seconds", 30, "how long one run measures")
		trace       = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		jsonPath    = flag.String("json", "", "also write the result here")
		compare     = flag.Bool("compare", false, "compare two suite result files given as arguments")
		checkRepeat = flag.Bool("check-repeat", false, "run the suite twice on this code and fail if an end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if err := realMain(*workload, *seed, *seconds, *trace, *jsonPath, *compare, *checkRepeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(workload string, seed int64, seconds float64, trace int, jsonPath string, compare, checkRepeat bool) error {
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		_, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		return err
	}
	outDir := defaultOutDir()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	switch {
	case checkRepeat:
		return repeatCheck(seed, seconds, outDir)
	case workload == "":
		res, err := runSuite(seed, seconds, outDir)
		if err != nil {
			return err
		}
		res.print(os.Stdout)
		if jsonPath != "" {
			if err := writeJSON(jsonPath, res); err != nil {
				return err
			}
		}
		if !res.correct() {
			return fmt.Errorf("alerts differ from the serial reference, or events were lost")
		}
		return nil
	}

	res, err := run(runConfig{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace != 0, Spec: fullSpec, OutDir: outDir})
	if err != nil {
		return err
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, res); err != nil {
			return err
		}
	}
	res.print(os.Stdout)
	return nil
}

// print lists every metric by name with its unit, then, as the last line,
// the one JSON object the driver reads.
func (res *runResult) print(w *os.File) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d events x %v reps, %d attempted, %d failed, %.1f s, kernel speed %.2f\n",
		res.Workload, res.Seed, res.Trace, res.Corpus.Events, res.Reps, res.Attempted, res.Failed, res.WallS, res.Kernel)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, name := range names {
		s := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %-9s median %.6g q1 %.6g q3 %.6g n %d\n", name, s.Value, s.Unit, s.Median, s.Q1, s.Q3, s.N)
		last.Metrics[name] = value{s.Value, s.Unit}
	}
	line, _ := json.Marshal(last) // plain numbers and strings: cannot fail
	fmt.Fprintln(w, string(line))
}

// defaultOutDir is bench/out: beside the binary when run.sh built it there,
// else found from the working directory (go run).
func defaultOutDir() string {
	if exe, err := os.Executable(); err == nil && filepath.Base(filepath.Dir(exe)) == "out" {
		return filepath.Dir(exe)
	}
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench/out"
	}
	return "out"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
