package service

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/aed-net/aed/internal/api"
	"github.com/aed-net/aed/internal/obs"
)

// inflight is one live request's entry in the /v1/requests view,
// registered before admission and removed when the handler has its
// result. state moves "queued" -> "solving" when a worker picks the
// job up.
type inflight struct {
	mu       sync.Mutex
	state    string
	id       string
	tenant   string
	session  string
	enqueued time.Time
}

func (f *inflight) setState(s string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.state = s
	f.mu.Unlock()
}

func (f *inflight) getState() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state
}

// trackRequest registers a request in the in-flight table; the returned
// func removes exactly this entry (a later request reusing the same ID
// is left alone).
func (s *Server) trackRequest(id, tenant, session string, enqueued time.Time) (*inflight, func()) {
	f := &inflight{state: "queued", id: id, tenant: tenant, session: session, enqueued: enqueued}
	s.ifmu.Lock()
	s.inflight[id] = f
	s.ifmu.Unlock()
	return f, func() {
		s.ifmu.Lock()
		if s.inflight[id] == f {
			delete(s.inflight, id)
		}
		s.ifmu.Unlock()
	}
}

// RequestJSON is one element of the GET /v1/requests response: a live
// request's identity, queue state, and its currently open span subtree
// (every open span stamped with its request_id).
type RequestJSON struct {
	RequestID string `json:"request_id"`
	Tenant    string `json:"tenant"`
	Session   string `json:"session,omitempty"`
	// State is "queued" (admitted, waiting for a worker) or "solving".
	State string `json:"state"`
	// QueuePos is the 1-based position among queued requests (oldest
	// first); 0 for requests already solving.
	QueuePos int `json:"queue_pos,omitempty"`
	// WaitingMS is the time since admission.
	WaitingMS float64 `json:"waiting_ms"`
	// Spans is the request's open span subtree, in the same Event shape
	// as /spans (open=true, elapsed-so-far durations).
	Spans []obs.Event `json:"spans,omitempty"`
}

// handleRequests serves GET /v1/requests: every in-flight request with
// its queue position and live span subtree — the "what is the service
// doing right now, and for whom" view.
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	now := time.Now()
	s.ifmu.Lock()
	live := make([]*inflight, 0, len(s.inflight))
	for _, f := range s.inflight {
		live = append(live, f)
	}
	s.ifmu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].enqueued.Before(live[j].enqueued) })

	// Open spans are matched to requests by the request_id attribute the
	// tracer stamps on every span started under obs.WithRequest.
	open := s.tr.OpenSpans()
	queuePos := 0
	out := make([]RequestJSON, 0, len(live))
	for _, f := range live {
		rj := RequestJSON{
			RequestID: f.id, Tenant: f.tenant, Session: f.session,
			State:     f.getState(),
			WaitingMS: float64(now.Sub(f.enqueued).Microseconds()) / 1000,
		}
		if rj.State == "queued" {
			queuePos++
			rj.QueuePos = queuePos
		}
		for _, sp := range open {
			if sp.Attrs["request_id"] == f.id {
				rj.Spans = append(rj.Spans, s.tr.SpanEvent(sp))
			}
		}
		out = append(out, rj)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// accessEntry is one line of the aedd access log (JSONL): the complete
// per-request audit record — identity, verdict, where the time went,
// and how much of the session cache ladder the solve climbed.
type accessEntry struct {
	Time      string `json:"time"`
	RequestID string `json:"request_id"`
	Tenant    string `json:"tenant"`
	Session   string `json:"session,omitempty"`
	// Verdict is "ok" for a satisfiable solve, the wire error code
	// otherwise ("unsat", "queue_full", "deadline_exceeded", ...).
	Verdict     string  `json:"verdict"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	SolveMS     float64 `json:"solve_ms"`
	// Cache-ladder instance counts: Cached hit the fingerprint cache
	// (tier 1), Rebound and Retargeted re-solved on a live instance
	// (tier 2; Retargeted after a policy edit), Reencoded solved from
	// scratch (tier 3, includes one-shot solves). Dirty = Rebound +
	// Retargeted + Reencoded.
	Cached     int `json:"cached"`
	Rebound    int `json:"rebound"`
	Retargeted int `json:"retargeted"`
	Reencoded  int `json:"reencoded"`
	Dirty      int `json:"dirty"`
}

// logAccess writes one access-log line. Lines are serialized so
// concurrent handlers never interleave bytes; a nil writer disables the
// log.
func (s *Server) logAccess(e accessEntry) {
	if s.accessLog == nil {
		return
	}
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.alMu.Lock()
	s.accessLog.Write(line)
	s.alMu.Unlock()
}

// accessVerdict maps a handler outcome to the access-log verdict: "ok"
// or the typed wire code the client saw.
func accessVerdict(err error) string {
	if err == nil {
		return "ok"
	}
	return api.EncodeError(err).Code
}

// accessCounts summarizes a response's instances for the access log.
func accessCounts(e *accessEntry, resp *api.Response) {
	if resp == nil {
		return
	}
	e.Cached = resp.Cached()
	e.Rebound = resp.Rebound()
	e.Retargeted = resp.Retargeted()
	e.Reencoded = len(resp.Instances) - e.Cached - e.Rebound - e.Retargeted
	e.Dirty = e.Rebound + e.Retargeted + e.Reencoded
}
