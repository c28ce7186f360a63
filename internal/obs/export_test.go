package obs

// The /spans and /metrics payload builders, for the external race test
// in livespans_test.go.
var (
	SpansPayload   = spansPayload
	MetricsPayload = metricsPayload
)
