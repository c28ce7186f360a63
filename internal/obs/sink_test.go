package obs

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// failWriter fails every write after the first n bytes.
type failWriter struct {
	n       int
	written int
}

var errSink = errors.New("sink broke")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		allowed := w.n - w.written
		if allowed < 0 {
			allowed = 0
		}
		w.written += allowed
		return allowed, errSink
	}
	w.written += len(p)
	return len(p), nil
}

func TestWriteJSONLFailingWriter(t *testing.T) {
	tr := NewTracer()
	tr.Start("solve").End()
	tr.Metrics().Counter("c").Add(1)
	if err := WriteJSONL(&failWriter{}, tr); !errors.Is(err, errSink) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
}

// TestWriteJSONLFailingWriterMidStream forces the failure past the
// bufio buffer so it surfaces from an Encode call, not just the final
// flush.
func TestWriteJSONLFailingWriterMidStream(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 500; i++ {
		sp := tr.Start("solve")
		sp.SetStr("dest", fmt.Sprintf("10.%d.0.0/24", i))
		sp.End()
	}
	if err := WriteJSONL(&failWriter{n: 8192}, tr); !errors.Is(err, errSink) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
}

func TestWriteJSONLPartialFailureKeepsValidPrefix(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 500; i++ {
		tr.Start("solve").End()
	}
	var buf bytes.Buffer
	// Tee-like writer: fail late, keep what got through.
	w := &prefixWriter{limit: 8192, buf: &buf}
	if err := WriteJSONL(w, tr); !errors.Is(err, errSink) {
		t.Fatalf("err = %v", err)
	}
	// Whatever bytes landed before the failure must decode line by line
	// up to the last complete line. ReadEvents itself fails on the
	// broken final line, so only the prefix through the last newline
	// is handed to it.
	data := buf.Bytes()
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		events, err := ReadEvents(bytes.NewReader(data[:i+1]))
		if err != nil {
			t.Fatalf("valid prefix failed to parse: %v", err)
		}
		if len(events) == 0 {
			t.Error("no events survived in the prefix")
		}
	}
}

type prefixWriter struct {
	limit   int
	written int
	buf     *bytes.Buffer
}

func (w *prefixWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		allowed := w.limit - w.written
		if allowed < 0 {
			allowed = 0
		}
		w.buf.Write(p[:allowed])
		w.written += allowed
		return allowed, errSink
	}
	w.buf.Write(p)
	w.written += len(p)
	return len(p), nil
}

// populatedTracer builds a tracer with a span tree, all metric types,
// and attribute values of every kind.
func populatedTracer() *Tracer {
	tr := NewTracer()
	root := tr.Start("synthesize")
	root.SetInt("destinations", 12)
	root.SetStr("policy", "reachability")
	root.SetBool("incremental", true)
	root.SetDur("budget", 1500*time.Microsecond)
	child := root.Child("solve")
	child.SetInt("conflicts", 42)
	child.End()
	root.End()
	tr.Metrics().Counter("solver.conflicts").Add(42)
	tr.Metrics().Gauge("solver.trail").Set(17)
	tr.Metrics().Histogram("solve.ms", []float64{1, 5, 10}).Observe(3.5)
	return tr
}

// gzipMembers compresses each part as its own gzip member, the framing
// a retention segment gets from one member per Flush.
func gzipMembers(t testing.TB, parts ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	for _, p := range parts {
		if _, err := zw.Write(p); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		zw.Reset(&buf)
	}
	return buf.Bytes()
}

// TestReadEventsAuto pins the one reader's format detection: plain
// JSONL and the same lines split across gzip members decode to
// identical events, and empty input is an empty trace in both forms.
func TestReadEventsAuto(t *testing.T) {
	var jbuf bytes.Buffer
	if err := WriteJSONL(&jbuf, populatedTracer()); err != nil {
		t.Fatal(err)
	}
	plain := jbuf.Bytes()
	cut := bytes.IndexByte(plain, '\n') + 1
	fromPlain, err := ReadEvents(bytes.NewReader(plain))
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	fromGzip, err := ReadEvents(bytes.NewReader(gzipMembers(t, plain[:cut], plain[cut:])))
	if err != nil {
		t.Fatalf("gzip: %v", err)
	}
	if len(fromPlain) == 0 || !reflect.DeepEqual(fromPlain, fromGzip) {
		t.Fatalf("plain and gzip reads differ:\n plain %+v\n gzip  %+v", fromPlain, fromGzip)
	}
	for name, in := range map[string][]byte{"plain": nil, "gzip": gzipMembers(t, nil)} {
		if events, err := ReadEvents(bytes.NewReader(in)); err != nil || len(events) != 0 {
			t.Errorf("empty %s input: %d events, err %v", name, len(events), err)
		}
	}
}

// TestReadEventsTruncatedGzip pins strictness on the compressed form:
// a torn member, a CRC mismatch, text after a member and a bad JSON
// line inside a member each fail the whole read.
func TestReadEventsTruncatedGzip(t *testing.T) {
	var jbuf bytes.Buffer
	if err := WriteJSONL(&jbuf, populatedTracer()); err != nil {
		t.Fatal(err)
	}
	good := gzipMembers(t, jbuf.Bytes())
	read := func(b []byte) error {
		_, err := ReadEvents(bytes.NewReader(b))
		return err
	}
	if err := read(good[:len(good)-5]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("torn member: err = %v, want io.ErrUnexpectedEOF", err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-8] ^= 0x55 // the CRC-32 trailer
	if err := read(bad); !errors.Is(err, gzip.ErrChecksum) {
		t.Errorf("corrupt CRC: err = %v, want gzip.ErrChecksum", err)
	}
	if err := read(append(append([]byte(nil), good...), jbuf.Bytes()...)); err == nil {
		t.Error("text after a gzip member must fail the read")
	}
	if err := read(gzipMembers(t, jbuf.Bytes(), []byte("{not json\n"))); err == nil ||
		!strings.Contains(err.Error(), "bad trace line") {
		t.Errorf("bad line in a member: err = %v", err)
	}
}

func TestSinkWriteRecorder(t *testing.T) {
	rec := NewRecorder(16)
	rec.RecordLabeled(EvCacheHit, "10.0.0.0/24", 7, 0)
	rec.RecordRequest(EvBoundTighten, "", "req-9", 12, 3)

	var buf bytes.Buffer
	if err := WriteRecorderJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"type":"recorder"`) ||
		!strings.Contains(buf.String(), `"label":"10.0.0.0/24"`) {
		t.Errorf("JSONL recorder drain missing fields:\n%s", buf.String())
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Name != "cache_hit" || events[0].Label != "10.0.0.0/24" ||
		events[1].A != 12 || events[1].Req != "req-9" {
		t.Errorf("recorder events decoded wrong: %+v", events)
	}
}
