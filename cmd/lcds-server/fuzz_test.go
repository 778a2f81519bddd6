package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	lcds "repro"

	"repro/internal/workload"
)

// fuzzMux builds one server shared by all fuzz executions — the dictionary
// is concurrency-safe and rebuilding it per input would dominate the fuzz
// loop.
var fuzzMux = sync.OnceValue(func() *http.ServeMux {
	_, mux, err := newServer(256, 29, 1, 0.1, false, lcds.TelemetryConfig{Sample: 1, TopK: 10})
	if err != nil {
		panic(err)
	}
	return mux
})

// FuzzContainsParam: an arbitrary ?key= value must answer 200 or 400 —
// never a panic, never a 5xx. CI's fuzz-smoke step runs this
// coverage-guided on every push.
func FuzzContainsParam(f *testing.F) {
	f.Add("1")
	f.Add("")
	f.Add("-1")
	f.Add("2305843009213693950")
	f.Add("2305843009213693951")
	f.Add("18446744073709551615")
	f.Add("0x10")
	f.Add("١٢٣")
	f.Fuzz(func(t *testing.T, key string) {
		q := url.Values{}
		q.Set("key", key)
		rec := httptest.NewRecorder()
		fuzzMux().ServeHTTP(rec, httptest.NewRequest("GET", "/contains?"+q.Encode(), nil))
		if rec.Code != 200 && rec.Code != 400 {
			t.Fatalf("key %q answered %d", key, rec.Code)
		}
	})
}

// FuzzBatchBody: an arbitrary POST /batch body must answer 200 or 400 —
// malformed JSON, wrong shapes, out-of-universe keys and oversized batches
// are all client errors, never panics.
func FuzzBatchBody(f *testing.F) {
	f.Add([]byte(`{"keys":[1,2,3]}`))
	f.Add([]byte(`{"keys":[]}`))
	f.Add([]byte(`{"keys":[18446744073709551615]}`))
	f.Add([]byte(`{"keys":"no"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2]`))
	f.Add([]byte(`{"keys":[1],"x":2}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		fuzzMux().ServeHTTP(rec, httptest.NewRequest("POST", "/batch", bytes.NewReader(body)))
		if rec.Code != 200 && rec.Code != 400 {
			t.Fatalf("body %q answered %d", body, rec.Code)
		}
	})
}

// FuzzTimelineParams: arbitrary since/max cursor strings must either parse
// cleanly or produce an error — and driven through the live handler, any
// error must surface as a 400, never a panic or a 5xx. CI's fuzz-smoke
// step runs this coverage-guided for a few seconds on every push.
func FuzzTimelineParams(f *testing.F) {
	keys := workload.MemberKeys(200, 3)
	dd, err := lcds.NewDynamic(keys[:128], 0.1, lcds.WithSeed(3),
		lcds.WithEventLog(lcds.EventLogConfig{}))
	if err != nil {
		f.Fatal(err)
	}
	for _, k := range keys[128:] {
		if _, err := dd.Insert(k); err != nil {
			f.Fatal(err)
		}
	}
	dd.Quiesce()
	handler := timelineHandler(dd)

	f.Add("", "")
	f.Add("0", "16")
	f.Add("18446744073709551615", "4096")
	f.Add("-1", "0")
	f.Add("1e9", "2.5")
	f.Add("؂٣", "𝟜")
	f.Fuzz(func(t *testing.T, since, max string) {
		_, m, err := parseTimelineParams(since, max)
		if err == nil && (m <= 0 || m > maxTimelineMax) {
			t.Fatalf("accepted max out of bounds: %d", m)
		}
		q := url.Values{}
		if since != "" {
			q.Set("since", since)
		}
		if max != "" {
			q.Set("max", max)
		}
		rec := httptest.NewRecorder()
		handler(rec, httptest.NewRequest("GET", "/debug/timeline?"+q.Encode(), nil))
		if err != nil && rec.Code != 400 {
			t.Fatalf("parse error %v but handler answered %d", err, rec.Code)
		}
		if err == nil && rec.Code != 200 {
			t.Fatalf("valid params (since=%q max=%q) answered %d", since, max, rec.Code)
		}
	})
}
