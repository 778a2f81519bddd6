package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

// requests returns the first n requests of the workload's stream.
func requests(t *testing.T, def workloadDef, seed uint64, n int) []request {
	t.Helper()
	s, err := newStream(def, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]request, n)
	for j := range out {
		var r request
		s.at(j, &r)
		out[j] = request{key: r.key, keys: append([]uint64(nil), r.keys...)}
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, def := range workloadDefs {
		a := requests(t, def, 42, 64)
		b := requests(t, def, 42, 64)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams from seed 42 differ", def.name)
		}
		if c := requests(t, def, 43, 64); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 42 and 43 give the same requests", def.name)
		}
	}
}

// TestConcurrentCursorRealizesStream drives a stream from several
// goroutines through one cursor, as the connections do, and checks that
// together they issue exactly the stream's first requests.
func TestConcurrentCursorRealizesStream(t *testing.T) {
	def, _ := lookupWorkload("read-single")
	s, err := newStream(def, 9)
	if err != nil {
		t.Fatal(err)
	}
	const total = 4000
	var cur cursor
	got := make([]uint64, total)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r request
			for j := cur.claim(); j < total; j = cur.claim() {
				s.at(j, &r)
				got[j] = r.key
			}
		}()
	}
	wg.Wait()
	for j, r := range requests(t, def, 9, total) {
		if got[j] != r.key {
			t.Fatalf("request %d: key %d, want %d", j, got[j], r.key)
		}
	}
}

func TestBatchRequestsPackConsecutivePositions(t *testing.T) {
	def, _ := lookupWorkload("read-batch")
	sc, err := workload.NewScenario(def.spec, workload.MemberKeys(serverN, datasetSeed), 5)
	if err != nil {
		t.Fatal(err)
	}
	r := requests(t, def, 5, 2)[1]
	if len(r.keys) != def.batch {
		t.Fatalf("batch holds %d keys, want %d", len(r.keys), def.batch)
	}
	for i, k := range r.keys {
		if want := sc.At(def.batch + i).Key; k != want {
			t.Fatalf("key %d = %d, want schedule position %d (%d)", i, k, def.batch+i, want)
		}
	}
}

// stubServer answers like lcds-server over the member set, except that it
// lies about the planted key.
func stubServer(t *testing.T, members map[uint64]bool, planted uint64) *httptest.Server {
	answer := func(k uint64) bool { return members[k] != (k == planted) }
	mux := http.NewServeMux()
	mux.HandleFunc("/contains", func(w http.ResponseWriter, r *http.Request) {
		k, _ := strconv.ParseUint(r.URL.Query().Get("key"), 10, 64)
		fmt.Fprintf(w, `{"key":%d,"member":%v}`+"\n", k, answer(k))
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		var body struct{ Keys []uint64 }
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := make([]string, len(body.Keys))
		for i, k := range body.Keys {
			out[i] = strconv.FormatBool(answer(k))
		}
		fmt.Fprintf(w, `{"members":[%s]}`+"\n", strings.Join(out, ","))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestOutputCheckFlagsPlantedWrongAnswer(t *testing.T) {
	for _, name := range []string{"read-single", "read-batch"} {
		def, _ := lookupWorkload(name)
		s, err := newStream(def, 3)
		if err != nil {
			t.Fatal(err)
		}
		members := map[uint64]bool{}
		for _, k := range s.keys {
			members[k] = true
		}
		var first request
		s.at(0, &first)
		planted := first.key
		if first.keys != nil {
			planted = first.keys[17]
		}
		srv := stubServer(t, members, planted)
		cl, err := newClient(strings.TrimPrefix(srv.URL, "http://"), s)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.c.close()

		var r request
		s.at(0, &r)
		if got := cl.send(&r); got.wrong != 1 || got.failed != 1 {
			t.Errorf("%s: request with the planted key tallied %+v, want 1 wrong", name, got)
		}
		if got := cl.sweep(s.keys, nonMemberKeys()); got.wrong != 1 || got.ops != serverN+nonMembers {
			t.Errorf("%s: sweep tallied %+v, want 1 wrong of %d", name, got, serverN+nonMembers)
		}
		// The same stub without a planted key passes.
		honest := stubServer(t, members, 1<<62)
		cl2, err := newClient(strings.TrimPrefix(honest.URL, "http://"), s)
		if err != nil {
			t.Fatal(err)
		}
		defer cl2.c.close()
		if got := cl2.send(&r); got.failed != 0 {
			t.Errorf("%s: honest answer tallied %+v", name, got)
		}
		if got := cl2.sweep(s.keys, nonMemberKeys()); got.failed != 0 {
			t.Errorf("%s: honest sweep tallied %+v", name, got)
		}
	}
}

func TestParseAnswers(t *testing.T) {
	if ok, err := parseFlag([]byte(`{"key":7,"member":true}`), "member"); !ok || err != nil {
		t.Errorf("member true: %v %v", ok, err)
	}
	if ok, err := parseFlag([]byte(`{"deleted":false,"key":7}`), "deleted"); ok || err != nil {
		t.Errorf("deleted false: %v %v", ok, err)
	}
	if _, err := parseFlag([]byte(`{"key":7}`), "member"); err == nil {
		t.Error("missing field accepted")
	}
	out := make([]bool, 4)
	n, err := parseMembers([]byte("{\"members\":[true,false,true]}\n"), out)
	if err != nil || n != 3 || !out[0] || out[1] || !out[2] {
		t.Errorf("parseMembers = %d %v %v", n, out, err)
	}
	for _, bad := range []string{`{"members":[true,]}`, `{"members":[maybe]}`, `{"keys":[]}`, `{"members":[true,true,true,true,true]}`} {
		if _, err := parseMembers([]byte(bad), out); err == nil {
			t.Errorf("parseMembers(%s) accepted", bad)
		}
	}
	if got := string(appendBatchBody(nil, []uint64{1, 22})); got != `{"keys":[1,22]}` {
		t.Errorf("batch body %s", got)
	}
}
