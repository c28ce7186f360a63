package aed

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/aed-net/aed/internal/smt"
)

// lab builds a three-router line network through the public API.
func lab(t *testing.T) (*Network, *Topology) {
	t.Helper()
	topo := NewTopology("lab")
	topo.AddRouter("r0", "edge")
	topo.AddRouter("r1", "core")
	topo.AddRouter("r2", "edge")
	topo.AddLink("r0", "r1")
	topo.AddLink("r1", "r2")
	src, _ := ParsePrefix("10.0.0.0/24")
	dst, _ := ParsePrefix("10.1.0.0/24")
	topo.AddSubnet("r0", src)
	topo.AddSubnet("r2", dst)

	texts := map[string]string{
		"r0": `hostname r0
interface eth-r1
router ospf 10
 network 10.0.0.0/24
 neighbor r1
`,
		"r1": `hostname r1
interface eth-r0
interface eth-r2
router ospf 10
 neighbor r0
 neighbor r2
`,
		"r2": `hostname r2
interface eth-r1
router ospf 10
 network 10.1.0.0/24
 neighbor r1
`,
	}
	net, err := ParseConfigs(texts)
	if err != nil {
		t.Fatal(err)
	}
	return net, topo
}

func TestPublicAPISynthesize(t *testing.T) {
	net, topo := lab(t)
	ps, err := ParsePolicies("block 10.0.0.0/24 -> 10.1.0.0/24\n")
	if err != nil {
		t.Fatal(err)
	}
	objs, err := NamedObjectives("min-devices")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Objectives = objs
	res, err := SynthesizeContext(context.Background(), net, topo, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsat() != nil {
		t.Fatal("unsat")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(Check(res.Updated, topo, ps)) != 0 {
		t.Fatal("public Check disagrees")
	}
	if d := Diff(net, res.Updated); d.DevicesChanged == 0 {
		t.Error("expected changes")
	}
	printed := PrintConfigs(res.Updated)
	if len(printed) != 3 {
		t.Error("expected 3 configs")
	}
}

func TestPublicAPIZeroOptions(t *testing.T) {
	net, topo := lab(t)
	ps, _ := ParsePolicies("reach 10.0.0.0/24 -> 10.1.0.0/24\n")
	// The zero value is the paper default; with the min-lines objective
	// a satisfied policy is a no-op. (The library no longer injects
	// MinimizeLines implicitly when no objectives are set.)
	res, err := SynthesizeContext(context.Background(), net, topo, ps, Options{MinimizeLines: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsat() != nil || res.Diff.LinesChanged() != 0 {
		t.Error("min-lines synthesis on a satisfied policy should be a no-op")
	}
	if res.Unsat() != nil {
		t.Errorf("Unsat() should be nil on success, got %v", res.Unsat())
	}
}

// TestZeroOptionsIsDefault pins the Options redesign contract: the
// zero value IS the paper default, field by field.
func TestZeroOptionsIsDefault(t *testing.T) {
	def := reflect.ValueOf(DefaultOptions())
	zero := reflect.ValueOf(Options{})
	typ := def.Type()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		t.Run(name, func(t *testing.T) {
			d, z := def.Field(i), zero.Field(i)
			if !reflect.DeepEqual(d.Interface(), z.Interface()) {
				t.Errorf("DefaultOptions().%s = %v, zero value = %v — the zero value must be the default",
					name, d.Interface(), z.Interface())
			}
			if !d.IsZero() {
				t.Errorf("DefaultOptions().%s = %v is not the zero value of its type",
					name, d.Interface())
			}
		})
	}
	if !reflect.DeepEqual(DefaultOptions(), Options{}) {
		t.Error("DefaultOptions() != Options{}")
	}
	if s := DefaultOptions().Strategy; s != smt.Auto {
		t.Errorf("zero Strategy = %v, want smt.Auto", s)
	}
}

func TestPublicAPISession(t *testing.T) {
	net, topo := lab(t)
	ps, _ := ParsePolicies("block 10.0.0.0/24 -> 10.1.0.0/24\n")
	sess := NewSession(net, topo, Options{MinimizeLines: true})
	res, err := sess.Solve(context.Background(), ps)
	if err != nil || res.Unsat() != nil {
		t.Fatalf("session solve: err=%v", err)
	}
	warm, err := sess.Solve(context.Background(), ps)
	if err != nil || warm.Unsat() != nil {
		t.Fatalf("warm session solve: err=%v", err)
	}
	for _, in := range warm.Instances {
		if !in.Cached {
			t.Errorf("identical warm solve re-solved %s", in.Destination)
		}
	}
}

func TestPublicAPISynthesizeContext(t *testing.T) {
	net, topo := lab(t)
	ps, _ := ParsePolicies("block 10.0.0.0/24 -> 10.1.0.0/24\n")
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, err := SynthesizeContext(ctx, net, topo, ps, Options{}); err == nil {
		t.Fatal("expired context must abort synthesis")
	}
}

func TestPublicAPIInfer(t *testing.T) {
	net, topo := lab(t)
	ps := InferReachability(net, topo)
	if len(ps) != 2 {
		t.Fatalf("inferred %d policies, want 2", len(ps))
	}
}

func TestPublicAPIObjectives(t *testing.T) {
	objs, err := ParseObjectives(`NOMODIFY //Router[name="r1"]
ELIMINATE //StaticRoute GROUPBY prefix
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatal("want 2 objectives")
	}
	if !strings.Contains(objs[0].String(), "NOMODIFY") {
		t.Error("String rendering broken")
	}
}

func TestPublicAPIPlanDeployment(t *testing.T) {
	net, topo := lab(t)
	ps, _ := ParsePolicies("block 10.0.0.0/24 -> 10.1.0.0/24\nreach 10.1.0.0/24 -> 10.0.0.0/24\n")
	opts := DefaultOptions()
	opts.MinimizeLines = true
	res, err := SynthesizeContext(context.Background(), net, topo, ps, opts)
	if err != nil || res.Unsat() != nil {
		t.Fatal("synthesis failed")
	}
	plan := PlanDeployment(net, topo, res.Edits, ps)
	if !plan.Safe || len(plan.Steps) == 0 {
		t.Fatalf("plan: %s", plan)
	}
}

// TestPublicAPIBinaryTrace pins the binary-trace surface: a tracer
// exported with WriteTraceBinary decodes via ReadTraceAuto to the same
// analysis the JSONL path yields.
func TestPublicAPIBinaryTrace(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("synthesize")
	sp.SetInt("destinations", 2)
	sp.End()

	var jbuf, bbuf bytes.Buffer
	if err := WriteTrace(&jbuf, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceBinary(&bbuf, tr); err != nil {
		t.Fatal(err)
	}
	if bbuf.Len() >= jbuf.Len() {
		t.Errorf("binary trace (%d bytes) not smaller than JSONL (%d bytes)", bbuf.Len(), jbuf.Len())
	}
	jEvents, err := ReadTraceAuto(bytes.NewReader(jbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	bEvents, err := ReadTraceAuto(bytes.NewReader(bbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	jp, bp := AnalyzeTrace(jEvents).Phases(), AnalyzeTrace(bEvents).Phases()
	if !reflect.DeepEqual(jp, bp) {
		t.Errorf("phase tables differ across formats:\njsonl:  %+v\nbinary: %+v", jp, bp)
	}
}

func TestPublicAPIParseConfigRoundTrip(t *testing.T) {
	r, err := ParseConfig("hostname x\nrouter bgp 65000\n network 10.0.0.0/24\n")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "x" {
		t.Error("parse failed")
	}
}
