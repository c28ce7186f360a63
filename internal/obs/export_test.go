package obs

import "time"

// The /spans and /metrics payload builders, for the external race test
// in livespans_test.go.
var (
	SpansPayload   = spansPayload
	MetricsPayload = metricsPayload
)

// RecordAt appends ev to the ring as RecordRequest would, stamped with
// ev.TimeUS instead of the current time, so segmentsize_test.go can
// spill a fixed, seeded recorder stream.
func (r *Recorder) RecordAt(ev Event) {
	kind := EvNone
	for k, name := range eventKindNames {
		if name == ev.Name {
			kind = EventKind(k)
		}
	}
	r.RecordRequest(kind, ev.Label, ev.Req, ev.A, ev.B)
	r.mu.Lock()
	r.times[(r.seq-1)%uint64(len(r.times))] = time.UnixMicro(ev.TimeUS).Sub(r.epoch).Nanoseconds()
	r.mu.Unlock()
}
