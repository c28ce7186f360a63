package policy

import (
	"reflect"
	"testing"
)

// FuzzPolicyParse checks the policy text format round-trips: whatever
// Parse accepts, Format renders into text that Parse reads back to an
// equal policy set.
func FuzzPolicyParse(f *testing.F) {
	for _, seed := range []string{
		"reach 10.0.0.0/24 -> 10.1.0.0/24\n",
		"block 10.0.0.0/24 -> 10.2.0.0/24\nisolate 10.0.0.0/24 -> 10.3.0.0/24\n",
		"waypoint 10.0.0.0/24 -> 10.1.0.0/24 via fw1\n",
		"prefer 10.0.0.0/24 -> 10.1.0.0/24 via r2 over r3\n",
		"# comment\n\n  maxlen 10.0.0.0/24 -> 10.1.0.0/24 <= 3  \n",
		"block 10.1.0.0/24 -> 10.0.0.0/24\r\nreach 10.2.0.0/16 -> 10.3.0.0/24\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		ps, err := Parse(text)
		if err != nil {
			return
		}
		out := Format(ps)
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(Format(ps)) failed: %v\ntext: %q\nformatted: %q", err, text, out)
		}
		if !reflect.DeepEqual(back, ps) {
			t.Fatalf("round trip changed the policies:\n got %v\nwant %v\nformatted: %q", back, ps, out)
		}
	})
}
