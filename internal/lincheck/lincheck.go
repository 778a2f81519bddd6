// Package lincheck checks recorded histories of a concurrent set for
// linearizability, by the Wing–Gong search with Lowe's memoisation (the
// "WGL" algorithm).
//
// A history is a list of completed operations, each with its result and
// the invoke and return times read from one monotonic clock. The history
// is linearizable when every operation can be given a single instant
// inside its [Call, Return] interval such that, in instant order, each
// result is what a sequential set would have answered. Set semantics are
// P-compositional — a history is linearizable iff each key's sub-history
// is — so Check splits the history by key and searches each part alone,
// which keeps every search small.
//
// The search walks the history's call and return events in time order. At
// a call it tries to linearize that operation next; at a return whose
// operation is still pending it backtracks. A cache of (linearized set,
// state) pairs already explored makes the search polynomial on the
// histories a stress test produces, whose concurrency is bounded by its
// goroutine count. The cache stores each linearized set as a 128-bit
// Zobrist hash, updated in O(1) per step; a collision, about states²/2¹²⁸
// likely, could only prune a branch and make Check reject, never accept.
package lincheck

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/rng"
)

// Kind names a set operation.
type Kind uint8

const (
	Contains Kind = iota // Result: the key was a member
	Insert               // Result: the set changed (the key was absent)
	Delete               // Result: the set changed (the key was present)
)

func (k Kind) String() string {
	switch k {
	case Contains:
		return "contains"
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op is one completed operation of a history. Call is read before the
// operation is invoked and Return after it returns, both from the same
// Clock, so the operation took effect somewhere inside [Call, Return].
type Op struct {
	Kind         Kind
	Key          uint64
	Result       bool
	Call, Return int64
}

func (o Op) String() string {
	return fmt.Sprintf("%s(%d)=%v @[%d,%d]", o.Kind, o.Key, o.Result, o.Call, o.Return)
}

// Clock is the monotonic clock a history's timestamps come from. Reading
// it writes no shared memory, so recording a history adds no
// synchronisation between the goroutines under test (the race detector
// still sees exactly the program's own happens-before edges).
type Clock struct{ start time.Time }

// NewClock starts a clock at zero.
func NewClock() *Clock { return &Clock{start: time.Now()} }

// Now returns the nanoseconds since the clock started, read from the
// process's monotonic clock.
func (c *Clock) Now() int64 { return int64(time.Since(c.start)) }

// Check reports an error naming the first key whose sub-history of h is
// not linearizable. initial gives each key's membership before the
// history began. Operations on one key are strictly ordered only when one
// returned before the other was invoked (equal timestamps count as
// overlapping), so a coarse clock can make the check weaker, never wrong.
func Check(h []Op, initial func(key uint64) bool) error {
	byKey := make(map[uint64][]Op)
	var keys []uint64
	for _, op := range h {
		if op.Return < op.Call {
			return fmt.Errorf("lincheck: %v returns before it is invoked", op)
		}
		if _, ok := byKey[op.Key]; !ok {
			keys = append(keys, op.Key)
		}
		byKey[op.Key] = append(byKey[op.Key], op)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if ops := byKey[k]; !linearizable(ops, initial(k)) {
			return fmt.Errorf("lincheck: key %d: history of %d ops is not linearizable:\n%s", k, len(ops), excerpt(ops))
		}
	}
	return nil
}

// apply runs op against a sequential set in which the key's membership is
// member. It reports whether op's recorded result is what the set answers,
// and the membership after op.
func apply(op Op, member bool) (ok, after bool) {
	switch op.Kind {
	case Insert:
		return op.Result == !member, true
	case Delete:
		return op.Result == member, false
	default:
		return op.Result == member, member
	}
}

// event is one call or return of an operation, linked into the list of
// events not yet linearized.
type event struct {
	op         int
	call       bool
	t          int64
	match      *event // a call's return event
	prev, next *event
}

// linearizable runs the WGL search over one key's operations.
func linearizable(ops []Op, initial bool) bool {
	evs := make([]event, 2*len(ops))
	for i, op := range ops {
		c, r := &evs[2*i], &evs[2*i+1]
		*c = event{op: i, call: true, t: op.Call, match: r}
		*r = event{op: i, t: op.Return}
	}
	order := make([]*event, len(evs))
	for i := range evs {
		order[i] = &evs[i]
	}
	// Time order; at equal times calls come first, so the operations
	// overlap rather than order.
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.t != b.t {
			return a.t < b.t
		}
		return a.call && !b.call
	})
	head := &event{}
	prev := head
	for _, e := range order {
		prev.next, e.prev = e, prev
		prev = e
	}

	lift := func(c *event) { // unlink a call and its return
		c.prev.next = c.next
		if c.next != nil {
			c.next.prev = c.prev
		}
		r := c.match
		r.prev.next = r.next
		if r.next != nil {
			r.next.prev = r.prev
		}
	}
	unlift := func(c *event) { // relink them, in reverse order
		r := c.match
		r.prev.next = r
		if r.next != nil {
			r.next.prev = r
		}
		c.prev.next = c
		if c.next != nil {
			c.next.prev = c
		}
	}

	// zob[i] is op i's Zobrist word pair: the linearized set's hash is the
	// XOR of its members' pairs.
	zob := make([][2]uint64, len(ops))
	r := rng.New(uint64(len(ops)))
	for i := range zob {
		zob[i] = [2]uint64{r.Uint64(), r.Uint64()}
	}
	type frame struct {
		call *event
		prev state // search state before the call's op was linearized
	}
	seen := make(map[state]bool)
	var stack []frame
	cur := state{member: initial}
	e := head.next
	for head.next != nil {
		if e.call {
			if ok, after := apply(ops[e.op], cur.member); ok {
				next := state{cur.h0 ^ zob[e.op][0], cur.h1 ^ zob[e.op][1], after}
				if !seen[next] {
					seen[next] = true
					stack = append(stack, frame{e, cur})
					cur = next
					lift(e)
					e = head.next
					continue
				}
			}
			e = e.next
			continue
		}
		// A return whose operation is still pending: no order of what
		// came before linearizes it here, so undo the last choice.
		if len(stack) == 0 {
			return false
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur = f.prev
		unlift(f.call)
		e = f.call.next
	}
	return true
}

// state is one search state: the hash of the linearized set and the key's
// membership after it.
type state struct {
	h0, h1 uint64
	member bool
}

// excerpt lists up to 32 of ops in invoke order for a failure message.
func excerpt(ops []Op) string {
	s := append([]Op(nil), ops...)
	sort.Slice(s, func(i, j int) bool { return s[i].Call < s[j].Call })
	var b strings.Builder
	for i, op := range s {
		if i == 32 {
			fmt.Fprintf(&b, "  ... %d more\n", len(s)-i)
			break
		}
		fmt.Fprintf(&b, "  %v\n", op)
	}
	return b.String()
}
