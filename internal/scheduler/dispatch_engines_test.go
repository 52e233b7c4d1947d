package scheduler_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"saql/internal/engine"
	"saql/internal/event"
	"saql/internal/runtime"
	"saql/internal/scheduler"
)

// TestPinnedDispatchEnginesMatchProcess is the engine-level half of the
// agentid dispatch fence (dispatch_ref_test.go): each random case, its
// control script included, raises the same alerts through Process and
// through started runtimes of 1, 2 and 8 shards, whose router evaluates with
// the batch evaluator, and both count the same PatternEvals.
func TestPinnedDispatchEnginesMatchProcess(t *testing.T) {
	for _, sd := range scheduler.DispatchSeeds(t) {
		t.Run(sd.Label, func(t *testing.T) {
			c := scheduler.NewDispatchCase(sd.Seed)
			compile := func(name, src string) *engine.Query {
				t.Helper()
				q, err := engine.Compile(name, src, engine.CompileOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return q
			}

			serial := scheduler.New(nil, c.Sharing)
			for _, q := range c.Queries {
				if err := serial.Add(compile(q.Name, q.Src)); err != nil {
					t.Fatal(err)
				}
			}
			var want []string
			collect := func(out *[]string, alerts []*engine.Alert) {
				for _, a := range alerts {
					*out = append(*out, a.String())
				}
			}
			script := c.Script
			for i, ev := range c.Events {
				for ; len(script) > 0 && script[0].At <= i; script = script[1:] {
					switch st := script[0]; st.Kind {
					case "pause", "resume":
						serial.SetPaused(st.Name, st.Kind == "pause")
					case "swap":
						if err := serial.Swap(st.Name, compile(st.Name, st.Src), false); err != nil {
							t.Fatal(err)
						}
					case "remove":
						serial.Remove(st.Name)
					}
				}
				collect(&want, serial.Process(ev))
			}
			collect(&want, serial.Flush())
			slices.Sort(want)
			if len(want) == 0 {
				t.Fatal("the case raised no alerts")
			}
			t.Logf("%d queries, %d events, %d alerts, sharing %v", len(c.Queries), len(c.Events), len(want), c.Sharing)

			for _, shards := range []int{1, 2, 8} {
				var mu sync.Mutex
				var got []string
				fan := runtime.NewAlertFanout(func(a *engine.Alert) {
					mu.Lock()
					defer mu.Unlock()
					got = append(got, a.String())
				})
				r := runtime.Start(runtime.Config{Shards: shards, Sharing: c.Sharing, Fan: fan}, event.Watermark{})
				for _, q := range c.Queries {
					if _, err := r.Add(compile(q.Name, q.Src)); err != nil {
						t.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(sd.Seed))
				script := c.Script
				for i := 0; i < len(c.Events); {
					for ; len(script) > 0 && script[0].At <= i; script = script[1:] {
						var err error
						switch st := script[0]; st.Kind {
						case "pause", "resume":
							_, err = r.Pause(st.Name, st.Kind == "pause")
						case "swap":
							err = r.Swap(compile(st.Name, st.Src), false)
						case "remove":
							_, err = r.Remove(st.Name)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					j := min(i+1+rng.Intn(64), len(c.Events))
					if len(script) > 0 {
						j = min(j, script[0].At)
					}
					if err := r.SubmitBatch(c.Events[i:j]); err != nil {
						t.Fatal(err)
					}
					i = j
				}
				r.Close()
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Errorf("shards=%d: %d alerts, Process raised %d\n%s", shards, len(got), len(want), firstDiff(got, want))
				}
				if a, b := r.SchedStats().PatternEvals, serial.Stats().PatternEvals; a != b {
					t.Errorf("shards=%d: PatternEvals %d, Process %d", shards, a, b)
				}
			}
		})
	}
}

// firstDiff reports where two sorted alert lists first differ.
func firstDiff(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("first difference at #%d:\n  got:  %s\n  want: %s", i, got[i], want[i])
		}
	}
	return "one list is a prefix of the other"
}
