package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/topology"
)

// roundTrip pushes an error through the exact path a client sees:
// encode to the wire form, marshal to JSON, unmarshal, reconstruct.
func roundTrip(t *testing.T, err error) error {
	t.Helper()
	data, jerr := json.Marshal(EncodeError(err))
	if jerr != nil {
		t.Fatalf("marshal: %v", jerr)
	}
	var w WireError
	if jerr := json.Unmarshal(data, &w); jerr != nil {
		t.Fatalf("unmarshal: %v", jerr)
	}
	return w.Err()
}

// TestErrorRoundTrip pins the service error contract: every public
// error crosses the JSON wire and still matches the same sentinel (or
// typed error) under errors.Is/errors.As, with the server's message
// preserved and the HTTP status stable on both sides.
func TestErrorRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		code     string
		status   int
		sentinel error
	}{
		{"queue_full", ErrQueueFull, CodeQueueFull, http.StatusTooManyRequests, ErrQueueFull},
		{"queue_full_wrapped", fmt.Errorf("aedd: queue at capacity 8: %w", ErrQueueFull),
			CodeQueueFull, http.StatusTooManyRequests, ErrQueueFull},
		{"budget", fmt.Errorf("aedd: tenant %q spent 5s of 1s: %w", "acme", ErrBudgetExceeded),
			CodeBudgetExceeded, http.StatusPaymentRequired, ErrBudgetExceeded},
		{"session_not_found", fmt.Errorf("aedd: session %q: %w", "prod", ErrSessionNotFound),
			CodeSessionNotFound, http.StatusNotFound, ErrSessionNotFound},
		{"invalid_request", fmt.Errorf("%w: configs: parse error", ErrInvalidRequest),
			CodeInvalidRequest, http.StatusBadRequest, ErrInvalidRequest},
		{"draining", fmt.Errorf("aedd: %w", ErrDraining),
			CodeDraining, http.StatusServiceUnavailable, ErrDraining},
		{"deadline", fmt.Errorf("solve: %w", context.DeadlineExceeded),
			CodeDeadline, http.StatusGatewayTimeout, context.DeadlineExceeded},
		{"canceled", context.Canceled, CodeCanceled, 499, context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := EncodeError(tc.err)
			if w.Code != tc.code {
				t.Errorf("code = %q, want %q", w.Code, tc.code)
			}
			if got := HTTPStatus(tc.err); got != tc.status {
				t.Errorf("server HTTPStatus = %d, want %d", got, tc.status)
			}
			back := roundTrip(t, tc.err)
			if !errors.Is(back, tc.sentinel) {
				t.Errorf("errors.Is(%v, sentinel) = false after round-trip", back)
			}
			if back.Error() != tc.err.Error() {
				t.Errorf("message = %q, want %q", back.Error(), tc.err.Error())
			}
			// The client-side error must map back to the same status, so a
			// proxy re-encoding the error preserves the taxonomy.
			if got := HTTPStatus(back); got != tc.status {
				t.Errorf("client HTTPStatus = %d, want %d", got, tc.status)
			}
		})
	}
}

func TestUnsatErrorRoundTrip(t *testing.T) {
	d1 := prefix.MustParse("10.0.0.0/24")
	d2 := prefix.MustParse("10.1.0.0/24")
	p1, err := policy.ParseOne("block 10.2.0.0/24 -> 10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := policy.ParseOne("reach 10.2.0.0/24 -> 10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	orig := &core.UnsatError{
		Destinations: []prefix.Prefix{d1, d2},
		Conflicts:    map[prefix.Prefix][]policy.Policy{d1: {p1, p2}},
	}

	w := EncodeError(orig)
	if w.Code != CodeUnsat {
		t.Fatalf("code = %q, want %q", w.Code, CodeUnsat)
	}
	if got := HTTPStatus(orig); got != http.StatusConflict {
		t.Fatalf("HTTPStatus = %d, want 409", got)
	}

	back := roundTrip(t, orig)
	var u *core.UnsatError
	if !errors.As(back, &u) {
		t.Fatalf("errors.As(*core.UnsatError) = false after round-trip: %v", back)
	}
	if len(u.Destinations) != 2 || u.Destinations[0] != d1 || u.Destinations[1] != d2 {
		t.Errorf("destinations = %v, want [%v %v]", u.Destinations, d1, d2)
	}
	got := u.Conflicts[d1]
	if len(got) != 2 {
		t.Fatalf("conflicts[%v] = %v, want 2 policies", d1, got)
	}
	for i, want := range []policy.Policy{p1, p2} {
		if got[i].String() != want.String() {
			t.Errorf("conflict %d = %q, want %q", i, got[i].String(), want.String())
		}
	}
}

func TestInternalErrorRoundTrip(t *testing.T) {
	back := roundTrip(t, errors.New("disk on fire"))
	if back.Error() != "disk on fire" {
		t.Errorf("message = %q", back.Error())
	}
	if got := HTTPStatus(errors.New("disk on fire")); got != http.StatusInternalServerError {
		t.Errorf("HTTPStatus = %d, want 500", got)
	}
}

func TestStatusErrFallback(t *testing.T) {
	// A proxy that strips the JSON body still yields matchable errors
	// via the status-code fallback.
	for status, sentinel := range map[int]error{
		http.StatusTooManyRequests:    ErrQueueFull,
		http.StatusPaymentRequired:    ErrBudgetExceeded,
		http.StatusNotFound:           ErrSessionNotFound,
		http.StatusBadRequest:         ErrInvalidRequest,
		http.StatusServiceUnavailable: ErrDraining,
		http.StatusGatewayTimeout:     context.DeadlineExceeded,
	} {
		if got := StatusErr(status); !errors.Is(got, sentinel) {
			t.Errorf("StatusErr(%d) = %v, want %v", status, got, sentinel)
		}
	}
	if got := StatusErr(http.StatusTeapot); got != nil {
		t.Errorf("StatusErr(418) = %v, want nil", got)
	}
}

func validRequest() *Request {
	topo := topology.LeafSpine(2, 1, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF})
	return &Request{
		Configs:  config.PrintNetwork(net),
		Topology: FormatTopology(topo),
		Policies: "block 10.1.0.0/24 -> 10.0.0.0/24\n",
	}
}

// TestMaterializeInvalid pins that every malformed input wraps
// ErrInvalidRequest, so the service's 400 mapping and library callers
// agree on what "bad request" means.
func TestMaterializeInvalid(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Request)
	}{
		{"no_configs", func(r *Request) { r.Configs = nil }},
		{"bad_config", func(r *Request) {
			r.Configs["bad"] = "hostname bad\ninterface e0\n ip address banana\n"
		}},
		{"bad_topology", func(r *Request) { r.Topology = "frobnicate r1 r2\n" }},
		{"empty_topology", func(r *Request) { r.Topology = "" }},
		{"bad_policy", func(r *Request) { r.Policies = "summon 10.0.0.0/24\n" }},
		{"bad_objectives", func(r *Request) { r.Objectives = "NOMODIFY [[[\n" }},
		{"bad_objective_set", func(r *Request) { r.ObjectiveSet = "no-such-set" }},
		{"bad_strategy", func(r *Request) { r.Options.Strategy = "quantum" }},
		{"negative_timeout", func(r *Request) { r.TimeoutMS = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := validRequest()
			tc.mutate(req)
			_, err := req.Materialize()
			if err == nil {
				t.Fatal("Materialize() = nil error")
			}
			if !errors.Is(err, ErrInvalidRequest) {
				t.Fatalf("error %v does not match ErrInvalidRequest", err)
			}
		})
	}
	if _, err := validRequest().Materialize(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

// TestMaterializeParallelOptions pins the wire-to-core mapping of the
// parallelism knobs: what a remote caller sets in options must land
// verbatim in core.Options.
func TestMaterializeParallelOptions(t *testing.T) {
	req := validRequest()
	req.Options.Sequential = true
	req.Options.Workers = 3
	prob, err := req.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !prob.Opts.Sequential || prob.Opts.Workers != 3 {
		t.Fatalf("options not mapped: sequential=%v workers=%d",
			prob.Opts.Sequential, prob.Opts.Workers)
	}
	// Each knob must also rotate the session options key, or a live
	// session would keep solving with the stale setting.
	seq, workers := validRequest(), validRequest()
	seq.Options.Sequential = true
	workers.Options.Workers = 3
	base := validRequest().OptionsKey()
	if seq.OptionsKey() == base || workers.OptionsKey() == base {
		t.Fatal("OptionsKey ignores workers/sequential")
	}
}

func TestFormatTopologyRoundTrip(t *testing.T) {
	topo := topology.LeafSpine(3, 2, 1)
	text := FormatTopology(topo)
	back, err := topology.ParseText("round-trip", text)
	if err != nil {
		t.Fatalf("ParseText(FormatTopology(t)): %v", err)
	}
	if !SameTopology(topo, back) {
		t.Errorf("round-trip changed the topology:\n%s\nvs\n%s", text, FormatTopology(back))
	}
	if !strings.Contains(text, "router leaf0 leaf") {
		t.Errorf("roles not rendered:\n%s", text)
	}
}
