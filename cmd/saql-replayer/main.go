// Command saql-replayer is the stream replayer of the paper (Figure 4): it
// replays stored system monitoring data as a live event stream, selecting
// hosts and a start/end time, at a configurable speed.
//
// It has two modes:
//
//   - CLI: replay a selection and print events (or just a summary).
//   - Web UI (-http): serve the Figure-4-style page where hosts and the
//     start/end time are chosen interactively; replays can optionally be run
//     through SAQL queries and the alerts shown.
//
// Usage:
//
//	saql-replayer -store ./data -hosts db-1 -speed 100 -print
//	saql-replayer -store ./data -http :8844
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"saql"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "saql-replayer:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		storeDir = flag.String("store", "", "event store directory (required)")
		hostsCSV = flag.String("hosts", "", "comma-separated agent ids (empty = all)")
		from     = flag.String("from", "", "start time (RFC3339)")
		to       = flag.String("to", "", "end time (RFC3339)")
		speed    = flag.Float64("speed", 0, "speed multiplier (0 = max)")
		print    = flag.Bool("print", false, "print every replayed event")
		httpAddr = flag.String("http", "", "serve the web UI on this address instead of replaying once")
	)
	flag.Parse()
	if *storeDir == "" {
		return fmt.Errorf("-store is required")
	}
	store, err := saql.OpenStore(*storeDir, saql.StoreOptions{})
	if err != nil {
		return err
	}
	rep := saql.NewReplayer(store)

	if *httpAddr != "" {
		return serveUI(*httpAddr, rep)
	}

	opts := saql.ReplayOptions{Speed: *speed}
	if *hostsCSV != "" {
		opts.Hosts = strings.Split(*hostsCSV, ",")
	}
	if *from != "" {
		t, err := time.Parse(time.RFC3339, *from)
		if err != nil {
			return fmt.Errorf("bad -from: %w", err)
		}
		opts.From = t
	}
	if *to != "" {
		t, err := time.Parse(time.RFC3339, *to)
		if err != nil {
			return fmt.Errorf("bad -to: %w", err)
		}
		opts.To = t
	}
	stats, err := rep.Replay(context.Background(), opts, func(ev *saql.Event) error {
		if *print {
			fmt.Println(ev)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d events spanning %s in %s (%.0fx)\n",
		stats.Events, stats.EventSpan().Round(time.Millisecond), stats.Wall.Round(time.Millisecond), stats.Speedup())
	return nil
}

// ---------------------------------------------------------------------------
// Web UI
// ---------------------------------------------------------------------------

type replayRequest struct {
	Hosts []string `json:"hosts"`
	From  string   `json:"from"`
	To    string   `json:"to"`
	Speed float64  `json:"speed"`
	Query string   `json:"query"` // optional SAQL query to run over the replay
}

type replayResponse struct {
	Events  int64    `json:"events"`
	SpanSec float64  `json:"span_seconds"`
	WallSec float64  `json:"wall_seconds"`
	Speedup float64  `json:"speedup"`
	Alerts  []string `json:"alerts,omitempty"`
	Error   string   `json:"error,omitempty"`
}

func serveUI(addr string, rep *saql.Replayer) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, uiPage)
	})
	mux.HandleFunc("/replay", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req replayRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, replayResponse{Error: err.Error()})
			return
		}
		resp := doReplay(r.Context(), rep, req)
		writeJSON(w, resp)
	})
	fmt.Printf("stream replayer UI on http://%s/\n", addr)
	return http.ListenAndServe(addr, mux)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func doReplay(ctx context.Context, rep *saql.Replayer, req replayRequest) replayResponse {
	opts := saql.ReplayOptions{Hosts: req.Hosts, Speed: req.Speed}
	if req.From != "" {
		t, err := time.Parse(time.RFC3339, req.From)
		if err != nil {
			return replayResponse{Error: "bad from: " + err.Error()}
		}
		opts.From = t
	}
	if req.To != "" {
		t, err := time.Parse(time.RFC3339, req.To)
		if err != nil {
			return replayResponse{Error: "bad to: " + err.Error()}
		}
		opts.To = t
	}

	// The replay is an event source: it feeds the optional query's started
	// engine through one Source.Run, and a subscription collects the alert
	// stream. Without a query the replay runs on its own, for its stats.
	var resp replayResponse
	produce := func(ctx context.Context, emit func(*saql.Event) error) error {
		stats, err := rep.Replay(ctx, opts, emit)
		resp = replayResponse{
			Events:  stats.Events,
			SpanSec: stats.EventSpan().Seconds(),
			WallSec: stats.Wall.Seconds(),
			Speedup: stats.Speedup(),
		}
		return err
	}
	if strings.TrimSpace(req.Query) == "" {
		if err := produce(ctx, func(*saql.Event) error { return nil }); err != nil {
			return replayResponse{Error: err.Error()}
		}
		return resp
	}
	eng := saql.New()
	if _, err := eng.Register("ui-query", req.Query); err != nil {
		return replayResponse{Error: err.Error()}
	}
	if err := eng.Start(ctx); err != nil {
		return replayResponse{Error: err.Error()}
	}
	defer eng.Close()
	sub := eng.Subscribe(256, saql.Block)
	var alerts []string
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for a := range sub.C {
			if len(alerts) < 200 {
				alerts = append(alerts, a.String())
			}
		}
	}()
	if err := saql.NewEventSource("replay", produce).Run(ctx, eng); err != nil {
		return replayResponse{Error: err.Error()}
	}
	// Close drains, flushes, and ends the subscription; wait for the
	// collector to finish before reading alerts.
	if err := eng.Close(); err != nil {
		return replayResponse{Error: err.Error()}
	}
	<-collected
	sort.Strings(alerts)
	resp.Alerts = alerts
	return resp
}

const uiPage = `<!DOCTYPE html>
<html><head><title>SAQL Stream Replayer</title>
<style>
body{font-family:sans-serif;max-width:760px;margin:2em auto;color:#222}
label{display:block;margin-top:.8em;font-weight:bold}
input,textarea{width:100%;padding:.4em;box-sizing:border-box}
textarea{height:9em;font-family:monospace}
button{margin-top:1em;padding:.6em 2em;font-size:1em}
pre{background:#f4f4f4;padding:1em;overflow:auto}
</style></head>
<body>
<h1>SAQL Stream Replayer</h1>
<p>Select hosts and a time range to replay stored system monitoring data as
an event stream; optionally run a SAQL query over the replay.</p>
<label>Hosts (comma-separated, empty = all)</label>
<input id="hosts" placeholder="db-1, ws-victim">
<label>From (RFC3339, empty = start of data)</label>
<input id="from" placeholder="2020-02-27T09:00:00Z">
<label>To (RFC3339, empty = end of data)</label>
<input id="to" placeholder="2020-02-27T09:30:00Z">
<label>Speed (0 = max)</label>
<input id="speed" value="0">
<label>SAQL query (optional)</label>
<textarea id="query" placeholder="proc p write ip i as evt #time(30 s) ..."></textarea>
<button onclick="go()">Replay</button>
<pre id="out">ready</pre>
<script>
async function go(){
  const hosts=document.getElementById('hosts').value.split(',').map(s=>s.trim()).filter(Boolean);
  const body={hosts:hosts,from:document.getElementById('from').value.trim(),
    to:document.getElementById('to').value.trim(),
    speed:parseFloat(document.getElementById('speed').value)||0,
    query:document.getElementById('query').value};
  document.getElementById('out').textContent='replaying...';
  const r=await fetch('/replay',{method:'POST',headers:{'Content-Type':'application/json'},body:JSON.stringify(body)});
  document.getElementById('out').textContent=JSON.stringify(await r.json(),null,2);
}
</script>
</body></html>
`
