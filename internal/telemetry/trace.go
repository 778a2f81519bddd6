package telemetry

// QueryTrace is one sampled membership query: which cells it probed at
// which steps, what it answered, and how long it took. Cell indices are
// flat indices into the dictionary's composite table (for sharded
// dictionaries the facade translates shard-local indices by the shard's
// cell offset; the routing probe itself and dynamic-buffer probes are not
// captured — they have no stable flat index across epochs).
type QueryTrace struct {
	// KeyHash is a hash of the queried key, not the key itself — traces
	// may be exposed on a debug endpoint and must not leak the keyset.
	KeyHash uint64 `json:"key_hash"`
	// Shard is the shard that answered (0 for unsharded dictionaries).
	Shard int `json:"shard"`
	// Steps is the number of probe steps the query executed.
	Steps int `json:"steps"`
	// Cells lists the flat cell index probed at each step.
	Cells []int32 `json:"cells"`
	// Found is the query's answer; Err marks a corrupt-table failure.
	Found bool `json:"found"`
	Err   bool `json:"err,omitempty"`
	// LatencyNs is the wall-clock duration of the query in nanoseconds.
	LatencyNs int64 `json:"latency_ns"`
	// UnixNano timestamps trace completion.
	UnixNano int64 `json:"unix_nano"`
}

// Tracer receives sampled query traces. Implementations must be safe for
// concurrent use; Trace is called at most once per sampled query, off the
// probe hot path (after the query completes).
type Tracer interface {
	Trace(QueryTrace)
}
