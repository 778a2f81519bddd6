package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	lcds "repro"

	"repro/internal/rng"
	"repro/internal/workload"
)

// batchBody is the canonical /batch body for keys.
func batchBody(keys []uint64) []byte {
	b, err := json.Marshal(batchRequest{Keys: keys})
	if err != nil {
		panic(err)
	}
	return b
}

// encodeJSON is what encoding/json writes for v through json.NewEncoder.
func encodeJSON(t testing.TB, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

type membersAnswer struct {
	Members []bool `json:"members"`
}

// TestWireBytesMatchEncodingJSON: the hand-encoded data-plane answers are
// byte-for-byte what json.NewEncoder wrote for the map and struct shapes
// they replaced, for true and false and for the smallest and largest
// keys; and a 1024-key /batch answer over a real connection declares its
// length instead of being chunked.
func TestWireBytesMatchEncodingJSON(t *testing.T) {
	_, mux := newTestMux(t, 64, 31)
	check := func(rec *httptest.ResponseRecorder, want any) {
		t.Helper()
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q", ct)
		}
		if got, w := rec.Body.String(), encodeJSON(t, want); got != w {
			t.Errorf("body %q, want %q", got, w)
		}
	}
	outsider := workload.MemberKeys(65, 31)[64]
	for _, k := range []uint64{0, lcds.MaxKey - 1} {
		contains := fmt.Sprintf("/contains?key=%d", k)
		insert := fmt.Sprintf("/insert?key=%d", k)
		del := fmt.Sprintf("/delete?key=%d", k)
		batch := string(batchBody([]uint64{k, outsider}))

		check(get(mux, contains), map[string]any{"key": k, "member": false})
		check(post(mux, insert, ""), map[string]any{"key": k, "inserted": true})
		check(post(mux, insert, ""), map[string]any{"key": k, "inserted": false})
		check(get(mux, contains), map[string]any{"key": k, "member": true})
		check(post(mux, "/batch", batch), membersAnswer{Members: []bool{true, false}})
		check(post(mux, del, ""), map[string]any{"key": k, "deleted": true})
		check(post(mux, del, ""), map[string]any{"key": k, "deleted": false})
		check(post(mux, "/batch", batch), membersAnswer{Members: []bool{false, false}})
	}

	srv := httptest.NewServer(mux)
	defer srv.Close()
	probe := workload.MemberKeys(1024, 31) // the first 64 are members
	resp, err := http.Post(srv.URL+"/batch", "application/json", bytes.NewReader(batchBody(probe)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Errorf("ContentLength %d for a %d-byte body", resp.ContentLength, len(body))
	}
	if len(resp.TransferEncoding) != 0 {
		t.Errorf("Transfer-Encoding %q, want none", resp.TransferEncoding)
	}
	want := make([]bool, len(probe))
	for i := range want {
		want[i] = i < 64
	}
	if w := encodeJSON(t, membersAnswer{Members: want}); string(body) != w {
		t.Errorf("1024-key answer differs from encoding/json's:\n got %.120q\nwant %.120q", body, w)
	}
}

// TestBatchBodyLimit: a valid body padded with whitespace to exactly
// batchBodyLimit bytes is answered; one byte more is refused, even though
// the object ends well within the limit, because the whole body is read
// before it is decoded.
func TestBatchBodyLimit(t *testing.T) {
	_, mux := newTestMux(t, 64, 37)
	obj := `{"keys":[1]}`
	for _, tc := range []struct {
		size, want int
	}{
		{batchBodyLimit, 200},
		{batchBodyLimit + 1, 400},
	} {
		body := obj + strings.Repeat(" ", tc.size-len(obj))
		if rec := post(mux, "/batch", body); rec.Code != tc.want {
			t.Errorf("%d-byte body: status %d, want %d: %.80s", tc.size, rec.Code, tc.want, rec.Body)
		}
	}
}

// TestBatchPooledBuffersConcurrent: goroutines interleave /batch requests
// of very different lengths over a real listener, and every answer is
// checked against the known key set, so a pooled body, keys, answers or
// response buffer shared between two requests, or a stale tail left from
// a longer one, fails the test. CI runs it under -race.
func TestBatchPooledBuffersConcurrent(t *testing.T) {
	const n, seed = 2048, 41
	_, mux := newTestMux(t, n, seed)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	all := workload.MemberKeys(n+4096, seed) // the first n are the members

	sizes := []int{1, 7, 1024, 4096}
	const goroutines, rounds = 8, 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 1)
			for i := 0; i < rounds; i++ {
				keys := make([]uint64, sizes[(g+i)%len(sizes)])
				want := make([]bool, len(keys))
				for j := range keys {
					idx := r.Uint64n(uint64(len(all)))
					keys[j], want[j] = all[idx], idx < n
				}
				resp, err := http.Post(srv.URL+"/batch", "application/json", bytes.NewReader(batchBody(keys)))
				if err != nil {
					t.Error(err)
					return
				}
				var got membersAnswer
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if resp.StatusCode != 200 || err != nil {
					t.Errorf("goroutine %d round %d: status %d, decode %v", g, i, resp.StatusCode, err)
					return
				}
				if len(got.Members) != len(keys) {
					t.Errorf("goroutine %d round %d: %d answers for %d keys", g, i, len(got.Members), len(keys))
					return
				}
				for j := range keys {
					if got.Members[j] != want[j] {
						t.Errorf("goroutine %d round %d: key %d answered %v, want %v", g, i, keys[j], got.Members[j], want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatchCodecZeroAlloc: parsing a canonical 1024-key body and encoding
// its answer into warmed buffers allocates nothing.
func TestBatchCodecZeroAlloc(t *testing.T) {
	body := batchBody(workload.MemberKeys(1024, 43))
	keys, ok := parseBatchKeys(body, nil)
	if !ok || len(keys) != 1024 {
		t.Fatalf("canonical body parsed ok=%v into %d keys", ok, len(keys))
	}
	out := make([]bool, len(keys))
	resp := appendMembers(nil, out)
	if allocs := testing.AllocsPerRun(100, func() {
		keys, ok = parseBatchKeys(body, keys[:0])
		resp = appendMembers(resp[:0], out[:len(keys)])
	}); allocs != 0 || !ok {
		t.Fatalf("parse+encode: %v allocs/op (ok=%v), want 0", allocs, ok)
	}
}

// parseUintPerDigit is parseUint with one digit per step, the reference
// its eight-digit steps must agree with.
func parseUintPerDigit(b []byte, i int) (v uint64, next int, ok bool) {
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return 0, i, false
	}
	if b[i] == '0' {
		return 0, i + 1, true
	}
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, i, false
		}
		v = v*10 + d
	}
	return v, i, true
}

// TestParseUintMatchesPerDigit: parseUint returns what the per-digit
// parser does, value, next index and ok, at every offset of buffers that
// hold 1–20-digit keys, the largest uint64 and one past it, digit runs
// ending on an 8-byte boundary and at the end of the buffer, and every
// non-digit byte (the digits' neighbours '/' and ':', bytes that carry when
// 6 is added) at every position of an eight-digit window.
func TestParseUintMatchesPerDigit(t *testing.T) {
	var bufs []string
	digits := "98765432109876543210"
	for n := 1; n <= 20; n++ {
		bufs = append(bufs, digits[:n], "1"+strings.Repeat("0", n-1), strings.Repeat("9", n),
			`{"keys":[`+digits[:n]+`,7]}`, digits[:n]+" ")
	}
	bufs = append(bufs, "18446744073709551615", "18446744073709551616", "18446744073709551620",
		"99999999999999999999", "00000000", "0123456789", "1844674407370955161x",
		"12345678", "1234567812345678", "x1234567", "xx12345678", "1234567,12345678,")
	const window = "123456789012345678"
	for pos := 0; pos < 8; pos++ {
		for c := 0; c < 256; c++ {
			if c >= '0' && c <= '9' {
				continue
			}
			for _, at := range []int{1 + pos, 9 + pos} { // the first and second eight-digit step
				b := []byte(window)
				b[at] = byte(c)
				bufs = append(bufs, string(b))
			}
		}
	}
	for _, buf := range bufs {
		b := []byte(buf)
		for i := 0; i <= len(b); i++ {
			v, next, ok := parseUint(b, i)
			wv, wnext, wok := parseUintPerDigit(b, i)
			if v != wv || next != wnext || ok != wok {
				t.Fatalf("parseUint(%q, %d) = (%d, %d, %v), want (%d, %d, %v)", b, i, v, next, ok, wv, wnext, wok)
			}
		}
	}
}

// BenchmarkBatchHandler prices one /batch request through newServer's mux:
// 1024 member keys drawn uniformly from n = 32768, decoded, answered by
// the dictionary and encoded. Compared with the dictionary's own batch
// benchmarks it gives the handler's self cost.
// It reports ns/key, the unit of perfbench's server_cpu_us_per_op on
// read-batch (one op is one key), in nanoseconds.
func BenchmarkBatchHandler(b *testing.B) {
	const n, seed, batch = 32768, 47, 1024
	_, mux, err := newServer(n, seed, 1, 0.1, defaultTelemetry)
	if err != nil {
		b.Fatal(err)
	}
	members := workload.MemberKeys(n, seed)
	r := rng.New(seed)
	bodies := make([][]byte, 64)
	for i := range bodies {
		keys := make([]uint64, batch)
		for j := range keys {
			keys[j] = members[r.Uint64n(n)]
		}
		bodies[i] = batchBody(keys)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/batch", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
}
