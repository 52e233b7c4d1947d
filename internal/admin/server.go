package admin

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"saql"
)

// defaultLimit caps list pages when the call names no limit.
const defaultLimit = 100

// maxBody bounds mutation request bodies (query sources and queryset
// documents), so a misbehaving client cannot balloon the server.
const maxBody = 4 << 20

// Response is the JSON envelope every /q call answers with.
type Response struct {
	Items  []map[string]any `json:"items,omitempty"`
	Item   map[string]any   `json:"item,omitempty"`
	Next   string           `json:"next,omitempty"`
	OK     bool             `json:"ok,omitempty"`
	Report map[string]any   `json:"report,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// Server serves the admin DSL over HTTP for one engine.
type Server struct {
	eng *saql.Engine
}

// NewServer wraps an engine.
func NewServer(eng *saql.Engine) *Server { return &Server{eng: eng} }

// Handler returns the HTTP handler: GET/POST /q with the call in the q
// parameter. Mutating verbs require POST and confirm=1 (409 otherwise).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/q", s.handleQ)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, resp *Response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(resp)
}

func fail(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, &Response{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleQ(w http.ResponseWriter, r *http.Request) {
	q := r.FormValue("q")
	if q == "" {
		fail(w, http.StatusBadRequest, "missing q parameter (the DSL call)")
		return
	}
	call, err := Parse(q)
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if IsMutation(call.Verb) {
		if r.Method != http.MethodPost {
			fail(w, http.StatusMethodNotAllowed, "%s mutates engine state: use POST", call.Verb)
			return
		}
		if r.FormValue("confirm") != "1" {
			fail(w, http.StatusConflict, "%s mutates engine state: pass confirm=1 to proceed", call.Verb)
			return
		}
	}
	switch call.Verb {
	case "list":
		s.handleList(w, call)
	case "get":
		s.handleGet(w, call)
	case "pause", "resume":
		s.handlePauseResume(w, call)
	case "update":
		s.handleUpdate(w, r, call)
	case "apply":
		s.handleApply(w, r, call)
	case "quota":
		s.handleQuota(w, call)
	default:
		fail(w, http.StatusBadRequest, "unknown verb %q (want list, get, pause, resume, update, apply, or quota)", call.Verb)
	}
}

// queryFields are the selectable fields of a query item, in render order.
var queryFields = []string{
	"id", "tenant", "paused", "kind", "labels", "source",
	"events", "pattern_hits", "matches", "alerts", "suppressed",
	"eval_errors", "late_hits", "partials_expired", "partials_dropped",
	"state_bytes", "alerts_1h",
}

var defaultQueryFields = []string{"id", "tenant", "paused", "alerts"}

// tenantFields are the selectable fields of a tenant item.
var tenantFields = []string{
	"name", "queries", "paused", "alerts", "suppressed",
	"source_events", "events_throttled", "state_bytes", "partials_expired",
	"partials_dropped", "sharing_ratio", "degraded", "max_queries",
	"max_state_bytes", "alert_budget", "alert_window", "ingest_rate",
}

var defaultTenantFields = []string{"name", "queries", "alerts", "suppressed", "degraded"}

func checkFields(sel, known []string) error {
	for _, f := range sel {
		found := false
		for _, k := range known {
			if f == k {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown field %q (want one of %s)", f, strings.Join(known, ", "))
		}
	}
	return nil
}

func (s *Server) queryItem(h *saql.QueryHandle, fields []string) map[string]any {
	name := h.Name()
	var st saql.QueryStats
	if qs, err := h.Stats(); err == nil {
		st = qs
	}
	item := map[string]any{}
	for _, f := range fields {
		switch f {
		case "id":
			item[f] = name
		case "tenant":
			item[f] = saql.TenantOf(name)
		case "paused":
			item[f] = h.Paused()
		case "kind":
			item[f] = h.Kind().String()
		case "labels":
			item[f] = h.Labels()
		case "source":
			item[f] = h.Source()
		case "events":
			item[f] = st.Events
		case "pattern_hits":
			item[f] = st.PatternHits
		case "matches":
			item[f] = st.Matches
		case "alerts":
			item[f] = st.Alerts
		case "suppressed":
			item[f] = st.Suppressed
		case "eval_errors":
			item[f] = st.EvalErrors
		case "late_hits":
			item[f] = st.LateHits
		case "partials_expired":
			item[f] = st.PartialsExpired
		case "partials_dropped":
			item[f] = st.PartialsDropped
		case "state_bytes":
			item[f] = st.StateBytes
		case "alerts_1h":
			item[f] = s.eng.RecentAlerts(name, time.Hour)
		}
	}
	return item
}

func tenantItem(ts saql.TenantStats, fields []string) map[string]any {
	item := map[string]any{}
	for _, f := range fields {
		switch f {
		case "name":
			item[f] = ts.Name
		case "queries":
			item[f] = ts.Queries
		case "paused":
			item[f] = ts.Paused
		case "alerts":
			item[f] = ts.Alerts
		case "suppressed":
			item[f] = ts.Suppressed
		case "source_events":
			item[f] = ts.SourceEvents
		case "events_throttled":
			item[f] = ts.EventsThrottled
		case "state_bytes":
			item[f] = ts.StateBytes
		case "partials_expired":
			item[f] = ts.PartialsExpired
		case "partials_dropped":
			item[f] = ts.PartialsDropped
		case "sharing_ratio":
			item[f] = ts.SharingRatio
		case "degraded":
			item[f] = ts.Degraded
		case "max_queries":
			item[f] = ts.Quotas.MaxQueries
		case "max_state_bytes":
			item[f] = ts.Quotas.MaxStateBytes
		case "alert_budget":
			item[f] = ts.Quotas.AlertBudget
		case "alert_window":
			item[f] = ts.Quotas.AlertWindow.String()
		case "ingest_rate":
			item[f] = ts.Quotas.IngestRate
		}
	}
	return item
}

// paginate sorts names, drops everything at or before the after cursor,
// truncates to limit, and returns the next cursor ("" when the page is the
// last).
func paginate(names []string, after string, limit int) (page []string, next string) {
	sort.Strings(names)
	if after != "" {
		i := sort.SearchStrings(names, after)
		if i < len(names) && names[i] == after {
			i++
		}
		names = names[i:]
	}
	if limit <= 0 {
		limit = defaultLimit
	}
	if len(names) > limit {
		return names[:limit], names[limit-1]
	}
	return names, ""
}

func (s *Server) handleList(w http.ResponseWriter, call *Call) {
	what := call.Arg("", 0)
	limit := 0
	if v := call.Named["limit"]; v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			fail(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	after := call.Named["after"]
	switch what {
	case "queries":
		fields := call.Fields
		if fields == nil {
			fields = defaultQueryFields
		}
		if err := checkFields(fields, queryFields); err != nil {
			fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		handles := map[string]*saql.QueryHandle{}
		var names []string
		for _, h := range s.eng.Queries() {
			if t := call.Named["tenant"]; t != "" && saql.TenantOf(h.Name()) != t {
				continue
			}
			handles[h.Name()] = h
			names = append(names, h.Name())
		}
		page, next := paginate(names, after, limit)
		resp := &Response{Items: []map[string]any{}, Next: next}
		for _, name := range page {
			resp.Items = append(resp.Items, s.queryItem(handles[name], fields))
		}
		writeJSON(w, http.StatusOK, resp)
	case "tenants":
		fields := call.Fields
		if fields == nil {
			fields = defaultTenantFields
		}
		if err := checkFields(fields, tenantFields); err != nil {
			fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		all := s.eng.Tenants()
		byName := map[string]saql.TenantStats{}
		var names []string
		for _, ts := range all {
			byName[ts.Name] = ts
			names = append(names, ts.Name)
		}
		page, next := paginate(names, after, limit)
		resp := &Response{Items: []map[string]any{}, Next: next}
		for _, name := range page {
			resp.Items = append(resp.Items, tenantItem(byName[name], fields))
		}
		writeJSON(w, http.StatusOK, resp)
	default:
		fail(w, http.StatusBadRequest, "list what? (want list(queries) or list(tenants))")
	}
}

func (s *Server) handleGet(w http.ResponseWriter, call *Call) {
	if t := call.Named["tenant"]; t != "" {
		fields := call.Fields
		if fields == nil {
			fields = tenantFields // get returns the full record by default
		}
		if err := checkFields(fields, tenantFields); err != nil {
			fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		ts, ok := s.eng.TenantStats(t)
		if !ok {
			fail(w, http.StatusNotFound, "unknown tenant %q", t)
			return
		}
		writeJSON(w, http.StatusOK, &Response{Item: tenantItem(ts, fields)})
		return
	}
	name := call.Arg("id", 0)
	if name == "" {
		fail(w, http.StatusBadRequest, "get needs a query name (get(tenant/query)) or tenant=name")
		return
	}
	fields := call.Fields
	if fields == nil {
		fields = queryFields
	}
	if err := checkFields(fields, queryFields); err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	h, ok := s.eng.Query(name)
	if !ok {
		fail(w, http.StatusNotFound, "unknown query %q", name)
		return
	}
	writeJSON(w, http.StatusOK, &Response{Item: s.queryItem(h, fields)})
}

func (s *Server) handlePauseResume(w http.ResponseWriter, call *Call) {
	name := call.Arg("id", 0)
	if name == "" {
		fail(w, http.StatusBadRequest, "%s needs a query name", call.Verb)
		return
	}
	h, ok := s.eng.Query(name)
	if !ok {
		fail(w, http.StatusNotFound, "unknown query %q", name)
		return
	}
	var err error
	if call.Verb == "pause" {
		err = h.Pause()
	} else {
		err = h.Resume()
	}
	if err != nil {
		fail(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, &Response{OK: true, Item: map[string]any{"id": name, "paused": h.Paused()}})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, call *Call) {
	name := call.Arg("id", 0)
	if name == "" {
		fail(w, http.StatusBadRequest, "update needs a query name")
		return
	}
	src, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil || len(src) == 0 {
		fail(w, http.StatusBadRequest, "update needs the new query source as the request body")
		return
	}
	h, ok := s.eng.Query(name)
	if !ok {
		fail(w, http.StatusNotFound, "unknown query %q", name)
		return
	}
	if err := h.Update(string(src)); err != nil {
		fail(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, &Response{OK: true, Item: map[string]any{"id": name}})
}

func (s *Server) handleApply(w http.ResponseWriter, r *http.Request, call *Call) {
	doc, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil || len(doc) == 0 {
		fail(w, http.StatusBadRequest, "apply needs a queryset document as the request body")
		return
	}
	set, err := saql.ParseQuerySet(string(doc))
	if err != nil {
		fail(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	report, err := s.eng.Apply(context.Background(), set)
	if err != nil {
		fail(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, &Response{OK: true, Report: map[string]any{
		"added": report.Added, "updated": report.Updated,
		"unchanged": report.Unchanged, "removed": report.Removed,
	}})
}

func (s *Server) handleQuota(w http.ResponseWriter, call *Call) {
	tenant := call.Arg("tenant", 0)
	if tenant == "" {
		fail(w, http.StatusBadRequest, "quota needs a tenant name")
		return
	}
	q := s.eng.TenantQuotas(tenant)
	for key, val := range call.Named {
		if key == "tenant" {
			continue
		}
		var dst *int64
		switch key {
		case "max_queries":
			dst = &q.MaxQueries
		case "max_state_bytes":
			dst = &q.MaxStateBytes
		case "alert_budget":
			dst = &q.AlertBudget
		case "ingest_rate":
			dst = &q.IngestRate
		case "alert_window":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				fail(w, http.StatusBadRequest, "bad alert_window %q (want a positive Go duration like 30m)", val)
				return
			}
			q.AlertWindow = d
			continue
		default:
			fail(w, http.StatusBadRequest, "unknown quota %q (want max_queries, max_state_bytes, alert_budget, alert_window, or ingest_rate)", key)
			return
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n < 0 {
			fail(w, http.StatusBadRequest, "bad %s value %q (want a non-negative integer; 0 means unlimited)", key, val)
			return
		}
		*dst = n
	}
	s.eng.SetTenantQuotas(tenant, q)
	ts, _ := s.eng.TenantStats(tenant)
	writeJSON(w, http.StatusOK, &Response{OK: true, Item: tenantItem(ts, tenantFields)})
}
