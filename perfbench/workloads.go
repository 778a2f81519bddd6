package main

import (
	"errors"
	"fmt"

	"repro/internal/workload"
)

// The server under test, as the benchmark starts it: n member keys drawn
// from the dataset seed, every other flag at its default.
const (
	serverN     = 32768
	datasetSeed = 1
	// conns is the number of loopback connections, one per CPU of the
	// 2-core machine the benchmark was sized on.
	conns = 2
	// nonMembers is the number of fixed non-member keys the final sweep
	// must answer false.
	nonMembers = 1024
)

// workloadDef is one traffic mix: a named schedule from internal/workload
// and how its positions are packed into requests.
type workloadDef struct {
	name string
	spec string // workload.NewScenario spec
	// batch > 0 packs that many consecutive schedule positions into one
	// POST /batch; 0 sends one request per position.
	batch int
	// ladderReqs is how many requests of the schedule the traced run
	// replays in-process through each rung: a few seconds per rung.
	ladderReqs int
	// sized are the reference server's figures on the machine the
	// benchmark was sized on: medians over the 17 (read-single) and 10
	// (read-batch) runs taken while sizing it.
	sized figures
}

var workloadDefs = []workloadDef{
	// One GET /contains per op: prices the server, net/http and loopback.
	{name: "read-single", spec: "zipf:1.1", ladderReqs: 150000,
		sized: figures{OpsPerSec: 26900, ClosedP50: 67, ClosedP99: 153, OpenP50: 210, CPUUsPerOp: 34}},
	// 1024 uniform keys per POST /batch: prices the in-process read path.
	{name: "read-batch", spec: "uniform", batch: 1024, ladderReqs: 300,
		sized: figures{OpsPerSec: 877000, ClosedP50: 2080, ClosedP99: 3830, OpenP50: 2190, CPUUsPerOp: 1.08}},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// stream is a workload's request sequence: request j is a pure function of
// (workload, schedule seed, j), whichever connection sends it. Every
// workload's schedule reads members only, so every answer must be true.
type stream struct {
	def  workloadDef
	sc   *workload.Scenario
	keys []uint64 // the server's member keys
}

func newStream(def workloadDef, seed uint64) (*stream, error) {
	keys := workload.MemberKeys(serverN, datasetSeed)
	sc, err := workload.NewScenario(def.spec, keys, seed)
	if err != nil {
		return nil, err
	}
	if !sc.ReadOnly() {
		return nil, fmt.Errorf("workload %s: schedule %q writes; the answer check needs a read-only schedule", def.name, def.spec)
	}
	return &stream{def: def, sc: sc, keys: keys}, nil
}

// nonMemberKeys are the fixed keys the final sweep expects absent: the next
// keys the member-key derivation would draw after the server's n.
func nonMemberKeys() []uint64 {
	return workload.MemberKeys(serverN+nonMembers, datasetSeed)[serverN:]
}

// request is one HTTP request of the stream. A batch request carries its
// keys; any other reads one key.
type request struct {
	key  uint64
	keys []uint64
}

// ops is how many ops (keys answered or writes applied) the request holds.
func (r *request) ops() int {
	if r.keys != nil {
		return len(r.keys)
	}
	return 1
}

// at fills r with request j, reusing r.keys.
func (s *stream) at(j int, r *request) {
	if s.def.batch == 0 {
		r.key = s.sc.At(j).Key
		r.keys = nil
		return
	}
	r.keys = r.keys[:0]
	for i := j * s.def.batch; i < (j+1)*s.def.batch; i++ {
		r.keys = append(r.keys, s.sc.At(i).Key)
	}
}

// tally counts one request's outcome.
type tally struct {
	ops    int // ops attempted
	failed int // ops that failed: transport error, non-2xx, wrong answer
	wrong  int // ops answered wrongly (a subset of failed)
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.wrong += o.wrong
}

// client is one connection's request executor.
type client struct {
	c      *conn
	s      *stream
	target []byte
	body   []byte
	out    []bool
}

func newClient(addr string, s *stream) (*client, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &client{c: c, s: s, out: make([]bool, 4096)}, nil
}

// send executes one request and checks its answer: every key is a member.
func (cl *client) send(r *request) tally {
	t := tally{ops: r.ops()}
	if r.keys != nil {
		cl.body = appendBatchBody(cl.body[:0], r.keys)
		status, body, err := cl.c.do("POST", []byte("/batch"), cl.body)
		if err != nil || status != 200 {
			t.failed = t.ops
			return t
		}
		n, err := parseMembers(body, cl.out)
		if err != nil || n != len(r.keys) {
			t.failed, t.wrong = t.ops, t.ops
			return t
		}
		for _, m := range cl.out[:n] {
			if !m {
				t.failed++
				t.wrong++
			}
		}
		return t
	}
	ok, err := cl.contains(r.key)
	switch {
	case errors.Is(err, errBadAnswer):
		t.failed, t.wrong = 1, 1
	case err != nil:
		t.failed = 1
	case !ok:
		t.failed, t.wrong = 1, 1
	}
	return t
}

// contains asks the server whether key is a member.
func (cl *client) contains(key uint64) (bool, error) {
	cl.target = appendKeyTarget(cl.target[:0], "/contains", key)
	status, body, err := cl.c.do("GET", cl.target, nil)
	if err != nil {
		return false, err
	}
	if status != 200 {
		return false, fmt.Errorf("GET /contains: status %d", status)
	}
	return parseFlag(body, "member")
}

// write inserts or deletes key and reports whether the set changed.
func (cl *client) write(key uint64, del bool) (bool, error) {
	path, field := "/insert", "inserted"
	if del {
		path, field = "/delete", "deleted"
	}
	cl.target = appendKeyTarget(cl.target[:0], path, key)
	status, body, err := cl.c.do("POST", cl.target, nil)
	if err != nil {
		return false, err
	}
	if status != 200 {
		return false, fmt.Errorf("POST %s: status %d", path, status)
	}
	return parseFlag(body, field)
}

// sweepBatch is the key count of one final-sweep /batch request.
const sweepBatch = 4096

// sweep asks for every member and the fixed non-members in /batch requests
// and counts wrong answers: a member must answer true, a non-member false.
func (cl *client) sweep(members, nonMembers []uint64) tally {
	type item struct {
		key  uint64
		want bool
	}
	items := make([]item, 0, len(members)+len(nonMembers))
	for _, k := range members {
		items = append(items, item{k, true})
	}
	for _, k := range nonMembers {
		items = append(items, item{k, false})
	}
	var t tally
	keys := make([]uint64, 0, sweepBatch)
	for lo := 0; lo < len(items); lo += sweepBatch {
		hi := min(lo+sweepBatch, len(items))
		keys = keys[:0]
		for _, it := range items[lo:hi] {
			keys = append(keys, it.key)
		}
		t.ops += len(keys)
		cl.body = appendBatchBody(cl.body[:0], keys)
		status, body, err := cl.c.do("POST", []byte("/batch"), cl.body)
		if err != nil || status != 200 {
			t.failed += len(keys)
			continue
		}
		n, err := parseMembers(body, cl.out)
		if err != nil || n != len(keys) {
			t.failed += len(keys)
			t.wrong += len(keys)
			continue
		}
		for i, it := range items[lo:hi] {
			if cl.out[i] != it.want {
				t.failed++
				t.wrong++
			}
		}
	}
	return t
}
