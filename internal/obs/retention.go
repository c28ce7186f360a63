package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/aed-net/aed/internal/obs/aedt"
)

// RetentionOptions configures an on-disk telemetry retention writer.
// The zero value is usable: defaults fill in a 4 MiB segment size and a
// 64 MiB total cap, and FlushEvery <= 0 selects manual flushing (no
// background goroutine), which is what tests use.
type RetentionOptions struct {
	// Dir is the segment directory (required; created if missing).
	Dir string
	// SegmentBytes rotates the current segment once it exceeds this many
	// bytes (default 4 MiB).
	SegmentBytes int64
	// MaxBytes caps the total on-disk footprint; once exceeded, the
	// oldest closed segments are deleted (default 64 MiB). The segment
	// currently being written is never deleted.
	MaxBytes int64
	// FlushEvery is the background spill period (default 1s when
	// exactly 0; negative disables the goroutine for manual Flush).
	FlushEvery time.Duration
}

const (
	defaultSegmentBytes = 4 << 20
	defaultMaxBytes     = 64 << 20
	segmentPattern      = "aed-%06d.aedt"
)

// Retention continuously spills a tracer's telemetry to disk as a ring
// of AEDT segments: finished spans (drained incrementally via
// Tracer.SpansFrom) and flight-recorder events (drained via
// Recorder.EventsSinceAppend) interleave into StreamMixed segment
// files named aed-NNNNNN.aedt. Segments rotate at SegmentBytes; when
// the directory exceeds MaxBytes the oldest closed segments are
// deleted, so a long-running daemon keeps a bounded, recent window of
// telemetry that survives a crash (each flushed block is
// self-contained and CRC-framed, so a torn final block loses only
// itself).
//
// Accounting (in the tracer's registry):
//
//	retention.spans            spans spilled
//	retention.events           recorder events spilled
//	retention.lost             spans and recorder events overwritten before spill
//	retention.rotations        segment rotations
//	retention.segments_deleted segments deleted by the size cap
//	retention.bytes (gauge)    current on-disk footprint
type Retention struct {
	t    *Tracer
	opts RetentionOptions

	mu       sync.Mutex
	cw       *countingWriter
	w        *aedt.Writer
	curPath  string
	nextIdx  int
	closed   []retSegment // closed segments, oldest first
	spanFrom int
	evSeq    uint64
	evBuf    []RecorderEvent
	down     bool

	stop chan struct{}
	done chan struct{}

	cSpans, cEvents, cLost, cRotations, cDeleted *Counter
	gBytes                                       *Gauge
}

type retSegment struct {
	path string
	size int64
}

// countingWriter tracks how many bytes reached the segment file, so
// rotation decisions see the real on-disk size (the aedt.Writer's
// internal buffer flushes through here).
type countingWriter struct {
	f *os.File
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.n += int64(n)
	return n, err
}

// NewRetention opens (or resumes) a retention ring under opts.Dir for
// t's spans and attached flight recorder. Existing aed-*.aedt segments
// in the directory are adopted: numbering continues after them and
// they count against MaxBytes. Call Close to stop the background
// spiller and seal the current segment.
func NewRetention(t *Tracer, opts RetentionOptions) (*Retention, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("obs: retention needs a directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = defaultMaxBytes
	}
	if opts.FlushEvery == 0 {
		opts.FlushEvery = time.Second
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	reg := t.Metrics()
	r := &Retention{
		t: t, opts: opts,
		cSpans:     reg.Counter("retention.spans"),
		cEvents:    reg.Counter("retention.events"),
		cLost:      reg.Counter("retention.lost"),
		cRotations: reg.Counter("retention.rotations"),
		cDeleted:   reg.Counter("retention.segments_deleted"),
		gBytes:     reg.Gauge("retention.bytes"),
	}
	if err := r.adoptExisting(); err != nil {
		return nil, err
	}
	if err := r.openSegment(); err != nil {
		return nil, err
	}
	r.enforceCapLocked()
	if opts.FlushEvery > 0 {
		r.stop = make(chan struct{})
		r.done = make(chan struct{})
		go r.loop()
	}
	return r, nil
}

// adoptExisting scans the directory for prior segments, oldest first.
func (r *Retention) adoptExisting() error {
	entries, err := os.ReadDir(r.opts.Dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(e.Name(), segmentPattern, &idx); err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		r.closed = append(r.closed, retSegment{
			path: filepath.Join(r.opts.Dir, e.Name()),
			size: info.Size(),
		})
		if idx >= r.nextIdx {
			r.nextIdx = idx + 1
		}
	}
	sort.Slice(r.closed, func(i, j int) bool { return r.closed[i].path < r.closed[j].path })
	return nil
}

// openSegment starts segment nextIdx. Caller holds r.mu (or owns r
// exclusively during New).
func (r *Retention) openSegment() error {
	path := filepath.Join(r.opts.Dir, fmt.Sprintf(segmentPattern, r.nextIdx))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.nextIdx++
	r.curPath = path
	r.cw = &countingWriter{f: f}
	r.w = aedt.NewWriter(r.cw, aedt.StreamMixed)
	return nil
}

// loop is the background spiller.
func (r *Retention) loop() {
	defer close(r.done)
	tick := time.NewTicker(r.opts.FlushEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			_ = r.Flush()
		case <-r.stop:
			return
		}
	}
}

// Flush drains new spans and recorder events to the current segment,
// rotating and enforcing the size cap as needed. Called periodically
// by the background goroutine; callers running with FlushEvery < 0
// (tests, one-shot CLIs) call it directly.
func (r *Retention) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down {
		return os.ErrClosed
	}

	var rec aedt.Record
	spans, next := r.t.SpansFrom(r.spanFrom)
	if first := next - len(spans); first > r.spanFrom {
		r.cLost.Add(int64(first - r.spanFrom))
	}
	r.spanFrom = next
	for _, sp := range spans {
		if eventToRecord(spanEvent(sp, r.t.Epoch()), &rec) {
			r.w.Append(&rec)
		}
	}
	r.cSpans.Add(int64(len(spans)))

	r.evBuf = r.evBuf[:0]
	evs, nextSeq := r.t.Recorder().EventsSinceAppend(r.evSeq, r.evBuf)
	r.evBuf = evs[:0]
	if len(evs) > 0 && evs[0].Seq > r.evSeq {
		r.cLost.Add(int64(evs[0].Seq - r.evSeq))
	}
	r.evSeq = nextSeq
	for _, ev := range evs {
		rec = aedt.Record{
			Kind: aedt.KindEvent, Time: ev.Time.UnixMicro(), Seq: ev.Seq,
			Name: ev.Kind, Label: ev.Label, A: ev.A, B: ev.B,
		}
		r.w.Append(&rec)
	}
	r.cEvents.Add(int64(len(evs)))

	if err := r.w.Flush(); err != nil {
		return err
	}
	if r.cw.n >= r.opts.SegmentBytes {
		if err := r.rotateLocked(); err != nil {
			return err
		}
	}
	r.enforceCapLocked()
	return nil
}

// rotateLocked seals the current segment and opens the next.
func (r *Retention) rotateLocked() error {
	if err := r.w.Close(); err != nil {
		return err
	}
	if err := r.cw.f.Close(); err != nil {
		return err
	}
	r.closed = append(r.closed, retSegment{path: r.curPath, size: r.cw.n})
	r.cRotations.Add(1)
	return r.openSegment()
}

// enforceCapLocked deletes oldest closed segments until the footprint
// fits MaxBytes, then publishes the footprint gauge.
func (r *Retention) enforceCapLocked() {
	total := r.cw.n
	for _, s := range r.closed {
		total += s.size
	}
	for total > r.opts.MaxBytes && len(r.closed) > 0 {
		victim := r.closed[0]
		r.closed = r.closed[1:]
		if err := os.Remove(victim.path); err == nil || os.IsNotExist(err) {
			r.cDeleted.Add(1)
		}
		total -= victim.size
	}
	r.gBytes.Set(total)
}

// Segments returns the paths of all live segments, oldest first, the
// currently-written one last.
func (r *Retention) Segments() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.closed)+1)
	for _, s := range r.closed {
		out = append(out, s.path)
	}
	if !r.down {
		out = append(out, r.curPath)
	}
	return out
}

// Close stops the background spiller (if any), performs a final Flush,
// and seals the current segment. Safe to call more than once.
func (r *Retention) Close() error {
	if r == nil {
		return nil
	}
	if r.stop != nil {
		r.mu.Lock()
		stopping := r.down
		r.mu.Unlock()
		if !stopping {
			close(r.stop)
			<-r.done
		}
	}
	if err := r.Flush(); err != nil && err != os.ErrClosed {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down {
		return nil
	}
	r.down = true
	if err := r.w.Close(); err != nil {
		r.cw.f.Close()
		return err
	}
	err := r.cw.f.Close()
	r.closed = append(r.closed, retSegment{path: r.curPath, size: r.cw.n})
	return err
}
