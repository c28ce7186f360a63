package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// eventsFromSeed derives an event stream deterministically from fuzz
// input: each seed byte steers one event's type and payload, strings
// come from a fixed table, so the round-trip property is exercised
// over arbitrary event shapes without the fuzzer having to produce
// valid JSON. Every value is one JSON decodes back to itself: attribute
// numbers are float64, and empty slices and maps are nil (omitempty
// drops them).
func eventsFromSeed(seed []byte) []Event {
	names := []string{"solve", "encode", "solver.conflicts", "", "10.0.0.0/24", "quote\"<&>\n", "é✓"}
	next := func(i, stride int) int64 {
		v := int64(0)
		for j := 0; j < 8 && i+j*stride < len(seed); j++ {
			v = v<<8 | int64(seed[(i+j*stride)%len(seed)])
		}
		if v%3 == 1 {
			v = -v
		}
		return v
	}
	name := func(i int) string { return names[i%len(names)] }
	var out []Event
	for i, b := range seed {
		var ev Event
		switch b % 5 {
		case 0:
			ev = Event{Type: "span", ID: uint64(next(i, 2)), Parent: uint64(next(i, 3)), Name: name(int(b / 5)),
				StartUS: next(i, 1), DurUS: next(i, 4), Open: b%2 == 0}
			for a := 0; a < int(b%4); a++ {
				if ev.Attrs == nil {
					ev.Attrs = make(map[string]any)
				}
				switch a % 3 {
				case 0:
					ev.Attrs[name(i+a)] = float64(next(i+a, 5)) / 4
				case 1:
					ev.Attrs[name(i+a)] = name(i + a + 1)
				case 2:
					ev.Attrs[name(i+a)] = b%3 == 0
				}
			}
		case 1:
			ev = Event{Type: "counter", Name: name(int(b / 5)), Value: next(i, 2)}
		case 2:
			ev = Event{Type: "gauge", Name: name(int(b / 5)), Value: next(i, 2), Max: next(i, 3)}
		case 3:
			ev = Event{Type: "histogram", Name: name(int(b / 5)), Count: next(i, 2), Sum: float64(next(i, 3)) / 7}
			for k := 0; k < int(b%3); k++ {
				ev.Bounds = append(ev.Bounds, float64(k)*1.5)
				ev.Counts = append(ev.Counts, next(i+k, 2))
				if b%2 == 0 {
					ev.Exemplars = append(ev.Exemplars, name(i+k))
				}
			}
		case 4:
			ev = Event{Type: "recorder", Name: name(int(b / 5)), Seq: uint64(next(i, 2)), TimeUS: next(i, 1),
				Label: name(int(b / 7)), Req: name(int(b / 11)), A: next(i, 2), B: next(i, 3)}
		}
		out = append(out, ev)
	}
	return out
}

// FuzzReadEvents checks the one trace reader two ways. Arbitrary bytes,
// raw and gzip-wrapped, must decode to events or fail with an error,
// never panic. And the event stream eventsFromSeed derives from the
// same bytes must survive JSONL encoding, gzip (split across two
// members, as retention flushes split a segment) and ReadEvents
// unchanged.
func FuzzReadEvents(f *testing.F) {
	var trace bytes.Buffer
	if err := WriteJSONL(&trace, populatedTracer()); err != nil {
		f.Fatal(err)
	}
	f.Add(trace.Bytes())
	f.Add([]byte("{}\n\n{\"type\":\"recorder\"}"))
	f.Add([]byte{0x1f, 0x8b})
	f.Add([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReadEvents(bytes.NewReader(data))
		_, _ = ReadEvents(bytes.NewReader(gzipMembers(t, data)))

		want := eventsFromSeed(data)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, ev := range want {
			if err := enc.Encode(ev); err != nil {
				t.Fatal(err)
			}
		}
		plain := buf.Bytes()
		cut := len(plain) / 2
		if i := bytes.IndexByte(plain[cut:], '\n'); i >= 0 {
			cut += i + 1
		}
		got, err := ReadEvents(bytes.NewReader(gzipMembers(t, plain[:cut], plain[cut:])))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the stream:\n got  %+v\n want %+v", got, want)
		}
	})
}
