package api

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// FuzzMaterialize feeds arbitrary request fields to Materialize, the
// service's first contact with untrusted input: it must never panic,
// and every error must wrap ErrInvalidRequest (the service's 400
// mapping relies on it). routers holds one config text per router,
// separated by NUL bytes.
func FuzzMaterialize(f *testing.F) {
	valid := validRequest()
	var configs []string
	for _, text := range valid.Configs {
		configs = append(configs, text)
	}
	routers := strings.Join(configs, "\x00")
	for _, set := range []string{"", "preserve-templates", "min-devices", "min-pfs", "avoid-static", "min-lines"} {
		f.Add(routers, valid.Topology, valid.Policies, "", set, "", int64(0))
	}
	f.Add(routers, valid.Topology, "summon 10.0.0.0/24\n", "NOMODIFY [[[\n", "no-such-set", "quantum", int64(-1))
	f.Add("hostname bad\ninterface e0\n ip address banana\n", "frobnicate r1 r2\n", "", "", "", "core", int64(5))
	f.Fuzz(func(t *testing.T, routers, topo, policies, objectives, set, strategy string, timeoutMS int64) {
		r := &Request{
			Configs:      map[string]string{},
			Topology:     topo,
			Policies:     policies,
			Objectives:   objectives,
			ObjectiveSet: set,
			Options:      SolveOptions{Strategy: strategy},
			TimeoutMS:    timeoutMS,
		}
		for i, text := range strings.Split(routers, "\x00") {
			r.Configs[strconv.Itoa(i)] = text
		}
		if _, err := r.Materialize(); err != nil && !errors.Is(err, ErrInvalidRequest) {
			t.Fatalf("Materialize error does not wrap ErrInvalidRequest: %v", err)
		}
	})
}
