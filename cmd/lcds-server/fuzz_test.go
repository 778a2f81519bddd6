package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sync"
	"testing"

	lcds "repro"

	"repro/internal/workload"
)

// fuzzServer builds one server shared by all fuzz executions — the
// dictionary is concurrency-safe and rebuilding it per input would
// dominate the fuzz loop. The fuzz targets never write, so its key set
// stays workload.MemberKeys(256, 29).
var fuzzServer = sync.OnceValues(func() (*server, *http.ServeMux) {
	s, mux, err := newServer(256, 29, 1, 0.1, lcds.TelemetryConfig{Sample: 1, TopK: 10})
	if err != nil {
		panic(err)
	}
	return s, mux
})

func fuzzMux() *http.ServeMux {
	_, mux := fuzzServer()
	return mux
}

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
// are all client errors, never panics. The verdict is differential:
// encoding/json, decoding the body with unknown fields disallowed, is the
// reference, so the hand parser's canonical fast path must agree with it
// on which bodies are answered, and every answer must be the dictionary's
// for the keys encoding/json read. The only departure is a body longer
// than batchBodyLimit, refused before it is decoded.
func FuzzBatchBody(f *testing.F) {
	f.Add([]byte(`{"keys":[1,2,3]}`))
	f.Add([]byte(`{"keys":[]}`))
	f.Add([]byte(`{"keys":[18446744073709551615]}`))
	f.Add([]byte(`{"keys":"no"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2]`))
	f.Add([]byte(`{"keys":[1],"x":2}`))
	// The canonical grammar's edges: JSON whitespace and the plain object
	// are canonical; the rest leave the hand parser for encoding/json.
	f.Add([]byte(`{"keys":[01]}`))
	f.Add([]byte(`{"keys":[-0]}`))
	f.Add([]byte(`{"keys":[1.0]}`))
	f.Add([]byte(`{"keys":[1e3]}`))
	f.Add([]byte(`{"keys":[18446744073709551616]}`))
	f.Add([]byte("\r\n\t{\r\n\"keys\"\t:\n[\t0 ,\r\n1\t]\n}\r\n\t"))
	f.Add([]byte(`{"KEYS":[1]}`))
	f.Add([]byte(`{"k\u0065ys":[1]}`))
	f.Add([]byte(`{"keys":[1]}`))
	f.Add([]byte(`{"keys":null}`))
	f.Add([]byte(`{"keys":[1]} trailing`))
	f.Add([]byte(`{"keys":[1],"keys":[2,3]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s, mux := fuzzServer()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/batch", bytes.NewReader(body)))
		if rec.Code != 200 && rec.Code != 400 {
			t.Fatalf("body %q answered %d", body, rec.Code)
		}

		var req batchRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		decErr := dec.Decode(&req)
		if keys, ok := parseBatchKeys(body, nil); ok && (decErr != nil || !slices.Equal(keys, req.Keys)) {
			t.Fatalf("body %q: hand parser read %v, encoding/json read %v (%v)", body, keys, req.Keys, decErr)
		}
		valid := decErr == nil && len(body) <= batchBodyLimit &&
			len(req.Keys) >= 1 && len(req.Keys) <= batchLimit
		for _, k := range req.Keys {
			valid = valid && k < lcds.MaxKey
		}
		if valid != (rec.Code == 200) {
			t.Fatalf("body %q answered %d; encoding/json read keys %v", body, rec.Code, req.Keys)
		}
		if !valid {
			return
		}
		var got membersAnswer
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("body %q: answer %q: %v", body, rec.Body, err)
		}
		want := make([]bool, len(req.Keys))
		if err := s.dd.ContainsBatch(req.Keys, want); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Members, want) {
			t.Fatalf("body %q: members %v, want %v for keys %v", body, got.Members, want, req.Keys)
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
