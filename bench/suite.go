package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// environment is recorded with every suite result; results from different
// environments are not comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
}

// suiteResult is the whole benchmark: each workload's untraced and traced
// run, both from a fresh child process.
type suiteResult struct {
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Env       environment             `json:"env"`
	Corpus    corpusInfo              `json:"corpus"`
	Workloads map[string]*workloadRun `json:"workloads"`
}

type workloadRun struct {
	WallS      float64    `json:"wall_s"` // both children, start to exit
	EndToEnd   *runResult `json:"end_to_end"`
	PerLayer   *runResult `json:"per_layer"`
	TraceFile  string     `json:"trace_file"`
	ChildError string     `json:"child_error,omitempty"`
}

func currentEnvironment() environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOGC: os.Getenv("GOGC"), Commit: "unknown",
	}
	if env.GOGC == "" {
		env.GOGC = "100 (default)"
	}
	// A checkout without git history (the driver's) keeps "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// runSuite runs every workload twice (untraced, traced), each in its own
// child process: a re-exec of this binary that is given only the four run
// flags, so no workload inherits another's heap, caches or GC state.
func runSuite(seed int64, seconds float64, outDir string) (*suiteResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &suiteResult{Seed: seed, Seconds: seconds, Env: currentEnvironment(), Workloads: map[string]*workloadRun{}}
	for _, sc := range scenarios {
		wr := &workloadRun{TraceFile: filepath.Join(outDir, "trace-"+sc.Name+".json")}
		res.Workloads[sc.Name] = wr
		began := time.Now()
		for _, trace := range []int{0, 1} {
			path := filepath.Join(outDir, fmt.Sprintf("run-%s-t%d.json", sc.Name, trace))
			args := []string{
				"-workload", sc.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-json", path,
			}
			fmt.Fprintf(os.Stderr, "bench: %s trace=%d ...\n", sc.Name, trace)
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr // the child's table is reprinted from its JSON
			if err := cmd.Run(); err != nil {
				wr.ChildError = fmt.Sprintf("trace=%d: %v", trace, err)
				break
			}
			var rr runResult
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, &rr)
			}
			if err != nil {
				return nil, err
			}
			if trace == 0 {
				wr.EndToEnd = &rr
				res.Corpus = rr.Corpus
			} else {
				wr.PerLayer = &rr
			}
		}
		wr.WallS = time.Since(began).Seconds()
	}
	return res, nil
}

// correct reports whether every child ran and every rep matched the oracle.
func (s *suiteResult) correct() bool {
	for _, wr := range s.Workloads {
		if wr.ChildError != "" || wr.EndToEnd == nil || wr.PerLayer == nil || !wr.EndToEnd.Correct || !wr.PerLayer.Correct {
			return false
		}
	}
	return true
}

// print lists every metric by name with its unit, one column per workload.
func (s *suiteResult) print(w io.Writer) {
	fmt.Fprintf(w, "seed %d, %g s per run, %d events (fnv %s), nproc %d GOMAXPROCS %d %s GOGC %s commit %s\n",
		s.Seed, s.Seconds, s.Corpus.Events, s.Corpus.EventsHash, s.Env.NProc, s.Env.GOMAXPROCS, s.Env.GoVersion, s.Env.GOGC, s.Env.Commit)
	header := fmt.Sprintf("%-36s %-9s", "metric", "unit")
	for _, sc := range scenarios {
		header += fmt.Sprintf(" %14s", sc.Name)
	}
	section := func(title string, defs []metricDef, pick func(*workloadRun) *runResult) {
		fmt.Fprintf(w, "\n%s\n%s\n", title, header)
		for _, d := range defs {
			row := fmt.Sprintf("%-36s %-9s", d.Name, d.Unit)
			for _, sc := range scenarios {
				if rr := pick(s.Workloads[sc.Name]); rr != nil {
					row += fmt.Sprintf(" %14.6g", rr.Metrics[d.Name].Value)
				} else {
					row += fmt.Sprintf(" %14s", "-")
				}
			}
			fmt.Fprintln(w, row)
		}
	}
	section("end to end (tracing off; median across rounds, CPU-bound figures at machine speed 1)", endToEnd, func(wr *workloadRun) *runResult { return wr.EndToEnd })
	section("per layer (traced pass)", perLayer, func(wr *workloadRun) *runResult { return wr.PerLayer })
	fmt.Fprintln(w)
	for _, sc := range scenarios {
		wr := s.Workloads[sc.Name]
		var attempted, failed int
		for _, rr := range []*runResult{wr.EndToEnd, wr.PerLayer} {
			if rr != nil {
				attempted, failed = attempted+rr.Attempted, failed+rr.Failed
			}
		}
		share := 0.0
		if attempted > 0 {
			share = float64(failed) / float64(attempted)
		}
		fmt.Fprintf(w, "%-10s attempted %d failed %d failed_share %g wall %.1f s %s\n", sc.Name, attempted, failed, share, wr.WallS, wr.ChildError)
	}
}
