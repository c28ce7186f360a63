package objective

import "testing"

// FuzzObjectiveParse checks the objective language round-trips: a line
// ParseOne accepts renders through String into a line ParseOne reads
// back to the same objective, whose String is unchanged.
func FuzzObjectiveParse(f *testing.F) {
	for _, set := range Library() {
		for _, o := range set {
			f.Add(o.String())
		}
	}
	for _, o := range AvoidRouters("B") {
		f.Add(o.String())
	}
	f.Add(`MODIFY //RoutingProcess[type="static"]/Origination WEIGHT 5`)
	f.Add(`equate //PacketFilter groupby name weight 1`)
	f.Fuzz(func(t *testing.T, line string) {
		o, err := ParseOne(line)
		if err != nil {
			return
		}
		s := o.String()
		back, err := ParseOne(s)
		if err != nil {
			t.Fatalf("ParseOne(String()) failed: %v\nline: %q\nstring: %q", err, line, s)
		}
		if back.String() != s || back.Restriction != o.Restriction ||
			back.GroupBy != o.GroupBy || back.Weight != o.Weight {
			t.Fatalf("round trip unstable: %q -> %q (%+v vs %+v)", s, back.String(), back, o)
		}
	})
}
