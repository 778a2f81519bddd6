package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"

	"repro/internal/workload"
)

// The reference server is the benchmark's control for the speed of the
// machine. It serves the read API lcds-server serves — GET /contains and
// POST /batch, with the same JSON through encoding/json — from a Go map of
// the same member keys, and per key it makes refReads dependent reads in a
// table of refTableWords words, a stand-in for the dictionary's own cache
// misses in its 26 MiB table. It is this driver binary run with
// referenceArg, so no change to the repository outside perfbench/ changes
// it.
//
// Other tenants of a shared machine slow it in bursts that last seconds to
// minutes, by up to 2x on this benchmark; the reference slows with them.
// The driver measures it on the server's CPU in windows that alternate with
// the server's and reports the server's closed-loop figures at the speed the
// reference had on the machine the benchmark was sized on.
const (
	referenceArg  = "-reference"
	refReads      = 8
	refTableWords = 4 << 20 // 32 MiB
)

// refSink keeps the table reads from being optimised away.
var refSink atomic.Uint64

// serveReference runs the reference server on a loopback port until killed.
func serveReference() error {
	keys := workload.MemberKeys(serverN, datasetSeed)
	members := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		members[k] = true
	}
	table := make([]uint64, refTableWords)
	for i := range table {
		table[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	walk := func(k uint64) uint64 {
		for i := 0; i < refReads; i++ {
			k ^= table[(k*0x9e3779b97f4a7c15>>40)%refTableWords]
		}
		return k
	}
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/contains", func(w http.ResponseWriter, r *http.Request) {
		k, err := strconv.ParseUint(r.URL.Query().Get("key"), 10, 64)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		refSink.Add(walk(k))
		writeJSON(w, map[string]any{"key": k, "member": members[k]})
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Keys []uint64 `json:"keys"`
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := make([]bool, len(req.Keys))
		var x uint64
		for i, k := range req.Keys {
			x ^= walk(k)
			out[i] = members[k]
		}
		refSink.Add(x)
		writeJSON(w, struct {
			Members []bool `json:"members"`
		}{out})
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("perfbench reference serving http://%s/\n", ln.Addr())
	os.Stdout.Sync()
	return http.Serve(ln, mux)
}
