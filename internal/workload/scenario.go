package workload

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/hash"
	"repro/internal/rng"
)

// OpKind classifies one scheduled operation.
type OpKind uint8

const (
	OpRead OpKind = iota
	OpInsert
	OpDelete
)

// String names the op kind for reports and JSON.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Op is one scheduled operation: a kind and the key it targets.
type Op struct {
	Kind OpKind
	Key  uint64
}

// Scenario is a named, seeded workload: a deterministic schedule of
// operations that every driver — lcds-loadgen, perfbench — realizes
// identically. Position i always maps to the same Op for a given
// (spec, key set, seed), so a schedule is reproducible no matter how many
// goroutines drive it: concurrent callers of Next claim distinct positions
// from one atomic cursor, and the collective realized schedule is exactly
// {At(0), At(1), ...} regardless of which goroutine executed which position.
//
// Read-only scenarios with a stationary distribution additionally expose
// their exact realized support, so exact-contention comparisons
// (Dict.TelemetryCompareExactWeighted) run under precisely the driven
// distribution.
type Scenario struct {
	spec     string
	pass     int
	readOnly bool
	support  []dist.Weighted
	at       func(i uint64) Op
	pos      atomic.Uint64
}

// ScenarioNames returns one canonical instance of every registered scenario
// family, in a stable order — the enumeration CI's battery and the
// conformance tests sweep. Parameterized families appear with their default
// parameters; NewScenario accepts other parameter values too.
func ScenarioNames() []string {
	return []string{
		"uniform",
		"zipf:1.1",
		"point",
		"rotating:8:4096",
		"auction",
		"flood",
	}
}

// NewScenario resolves a scenario spec over the member key set:
//
//	uniform                  uniform reads over the key set
//	zipf:<s>                 Zipf(s) reads, skew toward the first keys
//	point                    every read hits the first key (T3 adversary)
//	rotating:<hot>:<window>  90% of reads on <hot> keys, rotating every <window> ops
//	auction                  rotating hot set with churn: every 8th op is a
//	                         write (alternating delete/insert) on the
//	                         scheduled key; optional auction:<hot>:<window>
//	flood                    adversarial point-mass writes: 90% of ops are
//	                         alternating delete/insert on the first key,
//	                         10% reads of the same key
//
// The schedule is deterministic in (spec, keys, seed). Weighted specs
// realize their distribution exactly per pass (largest-remainder
// apportionment, seeded shuffle); rotating specs use absolute positions, so
// the hot block advances forever without repeating the first window.
func NewScenario(spec string, keys []uint64, seed uint64) (*Scenario, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("workload: scenario %q needs keys", spec)
	}
	switch {
	case spec == "uniform":
		return newWeightedScenario(spec, dist.NewUniformSet(keys, "").Support(), len(keys), seed)
	case strings.HasPrefix(spec, "zipf:"):
		s, err := strconv.ParseFloat(strings.TrimPrefix(spec, "zipf:"), 64)
		if err != nil || s < 0 {
			return nil, fmt.Errorf("workload: bad zipf exponent in scenario %q", spec)
		}
		return newWeightedScenario(spec, dist.NewZipf(keys, s).Support(), len(keys), seed)
	case spec == "point":
		return newWeightedScenario(spec, dist.PointMass{Key: keys[0]}.Support(), len(keys), seed)
	case strings.HasPrefix(spec, "rotating:"):
		hot, window, err := parseHotWindow(spec, "rotating:", keys)
		if err != nil {
			return nil, err
		}
		rot, err := NewRotatingHotSet(keys, hot, window, scenarioHotFrac, seed^scenarioSeedSalt)
		if err != nil {
			return nil, err
		}
		return &Scenario{
			spec:     spec,
			pass:     window,
			readOnly: true,
			at:       func(i uint64) Op { return Op{Kind: OpRead, Key: rot.at(i)} },
		}, nil
	case spec == "auction" || strings.HasPrefix(spec, "auction:"):
		hot, window := 8, 4096
		if spec != "auction" {
			var err error
			if hot, window, err = parseHotWindow(spec, "auction:", keys); err != nil {
				return nil, err
			}
		}
		if hot > len(keys) {
			hot = len(keys)
		}
		rot, err := NewRotatingHotSet(keys, hot, window, scenarioHotFrac, seed^scenarioSeedSalt)
		if err != nil {
			return nil, err
		}
		// Every 8th position is a write on whatever key the rotating schedule
		// put there — overwhelmingly a hot key — with the polarity alternating
		// per write index, so hot keys flip membership over and over: the
		// churn profile two-phase write absorption exists for.
		return &Scenario{
			spec: spec,
			pass: window,
			at: func(i uint64) Op {
				op := Op{Kind: OpRead, Key: rot.at(i)}
				if i%8 == 7 {
					if (i/8)%2 == 0 {
						op.Kind = OpDelete
					} else {
						op.Kind = OpInsert
					}
				}
				return op
			},
		}, nil
	case spec == "flood":
		// Point-mass write flood: blocks of 20 positions, the first 18
		// alternating delete/insert on the first key, the last 2 reading it
		// back — 90% writes, all on one key, membership restored per block.
		target := keys[0]
		return &Scenario{
			spec: spec,
			pass: 20 * 100,
			at: func(i uint64) Op {
				switch m := i % 20; {
				case m >= 18:
					return Op{Kind: OpRead, Key: target}
				case m%2 == 0:
					return Op{Kind: OpDelete, Key: target}
				default:
					return Op{Kind: OpInsert, Key: target}
				}
			},
		}, nil
	}
	return nil, fmt.Errorf("workload: unknown scenario %q (families: %s)",
		spec, strings.Join(ScenarioNames(), ", "))
}

const (
	// scenarioHotFrac is the traffic share of the hot block in the rotating
	// and auction scenarios — the same 90% the bench write storm uses.
	scenarioHotFrac = 0.9
	// scenarioSeedSalt decorrelates the schedule shuffle from the
	// construction seed the dictionary itself was built with.
	scenarioSeedSalt = 0xd157
)

// newWeightedScenario wraps a WeightedDrive pass as a read-only scenario.
func newWeightedScenario(spec string, support []dist.Weighted, passLen int, seed uint64) (*Scenario, error) {
	drive, err := NewWeightedDrive(support, passLen, seed^scenarioSeedSalt)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		spec:     spec,
		pass:     drive.Len(),
		readOnly: true,
		support:  drive.Realized(),
		at: func(i uint64) Op {
			return Op{Kind: OpRead, Key: drive.At(int(i % uint64(drive.Len())))}
		},
	}, nil
}

// parseHotWindow parses "<family>:<hot>:<window>" specs.
func parseHotWindow(spec, prefix string, keys []uint64) (hot, window int, err error) {
	parts := strings.Split(strings.TrimPrefix(spec, prefix), ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("workload: bad scenario %q (want %s<hot>:<window>)", spec, prefix)
	}
	hot, err1 := strconv.Atoi(parts[0])
	window, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || hot < 1 || window < 1 || hot > len(keys) {
		return 0, 0, fmt.Errorf("workload: bad scenario %q (want %s<hot>:<window> with hot in [1,%d], window ≥ 1)",
			spec, prefix, len(keys))
	}
	return hot, window, nil
}

// Name returns the scenario spec (its registry name).
func (s *Scenario) Name() string { return s.spec }

// PassLen returns the schedule's pass length: weighted scenarios realize
// their distribution exactly every PassLen positions, pattern scenarios
// repeat their op mix at that period (rotation offsets excluded).
func (s *Scenario) PassLen() int { return s.pass }

// ReadOnly reports whether the schedule contains no inserts or deletes —
// such scenarios can drive a static dictionary, and every scheduled read
// targets a member key.
func (s *Scenario) ReadOnly() bool { return s.readOnly }

// Support returns the scenario's exact realized query support, or nil when
// the schedule mutates membership or has no stationary distribution
// (rotating, auction, flood). Exact-contention comparisons under this
// support see zero apportionment error.
func (s *Scenario) Support() []dist.Weighted {
	if s.support == nil {
		return nil
	}
	out := make([]dist.Weighted, len(s.support))
	copy(out, s.support)
	return out
}

// At returns the operation at schedule position i without advancing the
// shared cursor. It is a pure function of (spec, keys, seed, i) — the
// determinism contract the conformance battery pins.
func (s *Scenario) At(i int) Op { return s.at(uint64(i)) }

// Next claims the next schedule position. Safe for concurrent callers: each
// claims a distinct position, so any number of drivers collectively realize
// the exact deterministic schedule.
func (s *Scenario) Next() Op { return s.at(s.pos.Add(1) - 1) }

// MemberKeys draws n distinct member keys deterministically from seed — the
// shared key-set convention: a server built from (n, seed) and a load
// generator pointed at it derive the identical key set, so scheduled
// reads target real members without any key exchange over the wire.
func MemberKeys(n int, seed uint64) []uint64 {
	r := rng.New(seed)
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := r.Uint64n(hash.MaxKey)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}
