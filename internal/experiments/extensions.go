package experiments

import (
	"fmt"
	"math"

	"repro/internal/cellprobe"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dynamic"
	"repro/internal/hash"
	"repro/internal/memsim"
	"repro/internal/rng"
	"repro/internal/skew"
	"repro/internal/workload"
)

// X1 — the paper's §4 future-work question: what contention do *updates*
// cause? We run the dynamic extension (static LCDS + update buffer + global
// rebuilding) through churn and measure (a) that read contention stays
// within a constant of the static guarantee, and (b) the write probe mass
// concentrated on the buffer — the inherent hot region updates create.
func X1(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "X1",
		Title: "Dynamic extension — update cost and contention under churn (ε = 0.25)",
		Columns: []string{"n", "ops", "rebuilds", "rebuildKeys/op",
			"writeProbes/op", "readRatio(base)", "bufHotΦ·cells", "bufLoad"},
		Notes: []string{
			"workload: n initial keys, then ops = n alternating insert/delete operations",
			"rebuildKeys/op is the amortized global-rebuilding work (O(1/ε) keys per update)",
			"readRatio(base) = empirical max step contention × cells on the static table after churn — must match the static O(1) band",
			"bufHotΦ·cells = hottest buffer cell's read contention × buffer cells; bufLoad = buffer occupancy at the end",
		},
	}
	for _, n := range cfg.Sizes {
		keys := Keys(2*n, cfg.Seed+uint64(n))
		initial, extra := keys[:n], keys[n:]
		// Synchronous rebuilds keep the epoch sequence (and thus every
		// column) deterministic; readers are lock-free either way.
		d, err := dynamic.New(initial, dynamic.Params{SyncRebuild: true}, cfg.Seed)
		if err != nil {
			return nil, err
		}
		ops := 0
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				if _, err := d.Insert(extra[i]); err != nil {
					return nil, err
				}
			} else {
				if _, err := d.Delete(initial[i]); err != nil {
					return nil, err
				}
			}
			ops++
		}
		stats := d.Stats()

		// Read-contention measurement after churn.
		// Live keys: the even-indexed inserts plus the initial keys that
		// were never deleted (odd indices were deleted).
		live := make([]uint64, 0, d.Len())
		for i := 0; i < n; i += 2 {
			live = append(live, extra[i], initial[i])
		}
		baseRec := cellprobe.NewRecorder(d.BaseTable().Size())
		bufRec := cellprobe.NewRecorder(d.BufferTable().Size())
		d.BaseTable().Attach(baseRec)
		d.BufferTable().Attach(bufRec)
		qr := rng.New(cfg.Seed ^ uint64(n))
		for i := 0; i < cfg.Queries; i++ {
			k := live[qr.Intn(len(live))]
			ok, err := d.Contains(k, qr)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("X1: live key %d missing", k)
			}
			baseRec.EndQuery()
			bufRec.EndQuery()
		}
		d.BaseTable().Detach()
		d.BufferTable().Detach()

		t.Rows = append(t.Rows, []string{
			d2(n), d2(ops), d2(stats.Epoch - 1),
			f2s(float64(stats.RebuildKeys-n) / float64(ops)),
			f2s(float64(stats.WriteProbes) / float64(ops)),
			f1(baseRec.MaxStepContention() * float64(d.BaseTable().Size())),
			f1(bufRec.MaxStepContention() * float64(d.BufferTable().Size())),
			fmt.Sprintf("%d/%d", stats.Buffered, stats.BufferSlots),
		})
	}
	return t, nil
}

// A1 — ablation over the space factor β (the paper's s = βn): more space
// lowers the absolute contention of the replicated rows but the
// deterministic data probes stay at 1/n, so the ratio *to each table's own
// optimum* grows while the per-cell probe probability (×n) stays flat.
func A1(cfg Config) (*Table, error) {
	n := cfg.FixedN
	t := &Table{
		ID:    "A1",
		Title: fmt.Sprintf("Ablation — space factor β (n = %d, uniform positive queries)", n),
		Columns: []string{"beta", "cells", "cells/n", "probes",
			"maxΦ·s (vs optimal)", "maxΦ·n (absolute)", "hashTries"},
		Notes: []string{
			"maxΦ·n is the contention normalized by key count — the O(1/n) claim of Theorem 3; it must stay flat across β",
			"maxΦ·s grows with β only because the optimum 1/s improves with more cells",
		},
	}
	keys := Keys(n, cfg.Seed)
	q := dist.NewUniformSet(keys, "")
	for _, beta := range []float64{2, 4, 8, 16} {
		lc, err := core.Build(keys, core.Params{Beta: beta}, cfg.Seed)
		if err != nil {
			return nil, err
		}
		ex, err := contention.Exact(lc, q.Support())
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			f1(beta), d2(ex.Cells), f2s(float64(ex.Cells) / float64(n)),
			f2s(ex.Probes),
			f1(ex.RatioStep()), f2s(ex.MaxStep * float64(n)),
			d2(lc.Report().HashTries),
		})
	}
	return t, nil
}

// A2 — ablation over the independence degree d: more independence costs
// probes (2d coefficient reads) and buys sharper load concentration
// (Lemma 9's exponents improve with d).
func A2(cfg Config) (*Table, error) {
	n := cfg.FixedN
	t := &Table{
		ID:    "A2",
		Title: fmt.Sprintf("Ablation — hash independence degree d (n = %d)", n),
		Columns: []string{"d", "probes/query", "maxΦ·s", "maxBucketLoad",
			"maxGroupLoad", "hashTries"},
		Notes: []string{
			"probes grow as 2d + ρ + 4; the paper requires d > 2 for Lemma 9",
		},
	}
	keys := Keys(n, cfg.Seed)
	q := dist.NewUniformSet(keys, "")
	for _, deg := range []int{3, 4, 6, 8} {
		// δ must lie in (2/(d+2), 1 − 1/d); 0.5 works for every d ≥ 3.
		lc, err := core.Build(keys, core.Params{D: deg, Delta: 0.5}, cfg.Seed)
		if err != nil {
			return nil, err
		}
		ex, err := contention.Exact(lc, q.Support())
		if err != nil {
			return nil, err
		}
		rep := lc.Report()
		t.Rows = append(t.Rows, []string{
			d2(deg), f2s(ex.Probes), f1(ex.RatioStep()),
			d2(rep.MaxBucketLoad), d2(rep.MaxGroupLoad), d2(rep.HashTries),
		})
	}
	return t, nil
}

// A3 — memory-bank ablation for the hot-spot simulation: instead of one
// module per cell (the paper's model), interleave cells over a fixed number
// of banks. Fewer banks add structural conflicts for everyone; the
// low-contention dictionary's advantage persists until the bank count
// approaches the processor count.
func A3(cfg Config) (*Table, error) {
	n := cfg.FixedN
	procs := cfg.Procs[len(cfg.Procs)-1]
	keys := Keys(n, cfg.Seed)
	sts, err := cfg.comparison(keys, cfg.Seed)
	if err != nil {
		return nil, err
	}
	q := dist.NewUniformSet(keys, "")
	t := &Table{
		ID:    "A3",
		Title: fmt.Sprintf("Ablation — memory banks (n = %d, m = %d processors)", n, procs),
		Notes: []string{
			"modules = 0 means one module per cell (the cell-contention model); otherwise cell c maps to bank c mod modules",
		},
	}
	t.Columns = []string{"banks"}
	for _, st := range sts {
		t.Columns = append(t.Columns, st.Name())
	}
	for _, banks := range []int{16, 64, 256, 1024, 0} {
		label := "per-cell"
		if banks > 0 {
			label = d2(banks)
		}
		row := []string{label}
		for _, st := range sts {
			seqs, err := memsim.Sequences(st, q, procs, rng.New(cfg.Seed+uint64(banks)))
			if err != nil {
				return nil, err
			}
			res := memsim.Run(seqs, memsim.Config{Modules: banks})
			row = append(row, f2s(res.Slowdown()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// A4 — layout ablation: the paper stores replica j of z at column j mod r
// (residue classes); we default to contiguous blocks so the analyzer can
// represent probe distributions as intervals. The two layouts must have
// identical Monte-Carlo contention, probes and answers — this experiment is
// the empirical proof of that documented deviation.
func A4(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "A4",
		Title: "Ablation — replica layout: contiguous blocks (ours) vs residue classes (paper-literal)",
		Columns: []string{"n", "ratio(block,exact)", "ratio(block,mc)",
			"ratio(strided,mc)", "probes(block)", "probes(strided)"},
		Notes: []string{
			"same replica counts ⇒ identical probe distributions up to cell permutation; the two Monte-Carlo columns must agree within sampling noise",
			"the strided layout has no exact-analyzer support (interval spans), hence Monte-Carlo",
		},
	}
	for _, n := range cfg.Sizes {
		keys := Keys(n, cfg.Seed+uint64(n))
		q := dist.NewUniformSet(keys, "")
		block, err := core.Build(keys, core.Params{}, cfg.Seed)
		if err != nil {
			return nil, err
		}
		strided, err := core.Build(keys, core.Params{Strided: true}, cfg.Seed)
		if err != nil {
			return nil, err
		}
		ex, err := contention.Exact(block, q.Support())
		if err != nil {
			return nil, err
		}
		mcB, err := contention.MonteCarlo(block, q, cfg.Queries, rng.New(cfg.Seed^uint64(n)))
		if err != nil {
			return nil, err
		}
		mcS, err := contention.MonteCarlo(strided, q, cfg.Queries, rng.New(cfg.Seed^uint64(n)))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			d2(n), f1(ex.RatioStep()), f1(mcB.RatioStep()), f1(mcS.RatioStep()),
			f2s(mcB.Probes), f2s(mcS.Probes),
		})
	}
	return t, nil
}

// A5 — contention avoidance vs contention resolution: the classic fix for
// hot spots is hardware read combining ([13] in the paper); the paper's
// thesis is that a data structure can avoid needing it. This ablation runs
// F2's simulation with and without combining.
func A5(cfg Config) (*Table, error) {
	n := cfg.FixedN
	procs := cfg.Procs[len(cfg.Procs)-1]
	keys := Keys(n, cfg.Seed)
	sts, err := cfg.comparison(keys, cfg.Seed)
	if err != nil {
		return nil, err
	}
	q := dist.NewUniformSet(keys, "")
	t := &Table{
		ID:    "A5",
		Title: fmt.Sprintf("Ablation — read combining vs contention avoidance (n = %d, m = %d)", n, procs),
		Notes: []string{
			"combining completes all same-cell requests queued at a module in one cycle (hot-spot combining networks, the paper's ref [13])",
			"combining rescues the hot-cell baselines; the low-contention dictionary needs no such hardware — its two columns match",
		},
	}
	t.Columns = []string{"structure", "slowdown(plain)", "slowdown(combining)", "improvement"}
	for _, st := range sts {
		seqs, err := memsim.Sequences(st, q, procs, rng.New(cfg.Seed+uint64(procs)))
		if err != nil {
			return nil, err
		}
		plain := memsim.Run(seqs, memsim.Config{})
		combined := memsim.Run(seqs, memsim.Config{Combining: true})
		improvement := plain.Slowdown() / combined.Slowdown()
		t.Rows = append(t.Rows, []string{
			st.Name(), f2s(plain.Slowdown()), f2s(combined.Slowdown()), f2s(improvement),
		})
	}
	return t, nil
}

// W1 — realistic workloads between the paper's analyzed extremes: temporal
// locality (drifting working set), batch scans, and read-mostly-negative
// filter traffic. Contention is Monte-Carlo (the workloads are stateful, so
// there is no static support to analyze exactly).
func W1(cfg Config) (*Table, error) {
	n := cfg.FixedN
	keys := Keys(n, cfg.Seed)
	sts, err := cfg.comparison(keys, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "W1",
		Title: fmt.Sprintf("Contention ratio under realistic workloads (n = %d, Monte-Carlo, %d queries)", n, cfg.Queries),
		Notes: []string{
			"working-set: 5% of keys hot with 90% locality, drifting (churn 1%); between uniform (Theorem 3's regime) and Zipf (T3)",
			"scan: deterministic cyclic sweep — every key queried equally often overall, so total contention matches uniform, but probes are maximally correlated in time",
			"negative-heavy: 90% misses — exercises Lemma 10's uniform-negative side",
		},
	}
	makeWorkloads := func(seed uint64) ([]dist.Dist, error) {
		r := rng.New(seed)
		ws, err := workload.NewWorkingSet(keys, n/20, 0.9, 0.01, r)
		if err != nil {
			return nil, err
		}
		sc, err := workload.NewScan(keys)
		if err != nil {
			return nil, err
		}
		return []dist.Dist{
			dist.NewUniformSet(keys, "uniform"),
			ws,
			sc,
			dist.PosNeg(keys, hash.MaxKey, 0.1),
		}, nil
	}
	probe, err := makeWorkloads(cfg.Seed)
	if err != nil {
		return nil, err
	}
	t.Columns = []string{"structure"}
	for _, q := range probe {
		t.Columns = append(t.Columns, q.Name())
	}
	for _, st := range sts {
		// Fresh stateful workloads per structure so drift is identical.
		qs, err := makeWorkloads(cfg.Seed)
		if err != nil {
			return nil, err
		}
		row := []string{st.Name()}
		for qi, q := range qs {
			mc, err := contention.MonteCarlo(st, q, cfg.Queries, rng.New(cfg.Seed+uint64(qi)))
			if err != nil {
				return nil, err
			}
			row = append(row, f1(mc.RatioStep()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// T7 — the other half of Theorem 3's query class: uniform negative queries
// (Lemma 10). Monte-Carlo, because the negative support is the whole
// universe.
func T7(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "T7",
		Title: "Contention ratio under uniform NEGATIVE queries vs n (Monte-Carlo)",
		Notes: []string{
			"Lemma 10: the hash functions are uniform over the domain, so negative query mass is even across buckets — the lcds ratio must stay O(1)",
			fmt.Sprintf("%d sampled queries per cell count; Poisson sampling noise grows with s/queries as in T1's MC column", cfg.Queries),
		},
	}
	names := []string{"lcds", "fks+rep", "dm", "cuckoo+rep", "bsearch"}
	t.Columns = append([]string{"n"}, names...)
	for _, n := range cfg.Sizes {
		keys := Keys(n, cfg.Seed+uint64(n))
		sts, err := cfg.comparison(keys, cfg.Seed+uint64(n))
		if err != nil {
			return nil, err
		}
		neg := dist.NewUniformComplement(hash.MaxKey, keys)
		ratios := map[string]float64{}
		for _, st := range sts {
			mc, err := contention.MonteCarlo(st, neg, cfg.Queries, rng.New(cfg.Seed^uint64(3*n)))
			if err != nil {
				return nil, err
			}
			if mc.Positives != 0 {
				return nil, fmt.Errorf("T7: %s answered %d positives to negative queries", st.Name(), mc.Positives)
			}
			ratios[st.Name()] = mc.RatioStep()
		}
		row := []string{d2(n)}
		for _, name := range names {
			row = append(row, f1(ratios[name]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// A6 — hash-family ablation: the construction's group balance rests on the
// DM family R^d_{r,m} (Lemma 9(2)). Compare the realized max group load,
// relative to the mean n/m, across families: pairwise polynomials, d-wise
// polynomials, and the DM family, for m = n/(2 ln n) groups.
func A6(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "A6",
		Title: "Ablation — hash family vs max group load (m = n/(2 ln n) groups, mean load = n/m)",
		Columns: []string{"n", "trials", "pairwise (max/mean)", "4-wise poly (max/mean)",
			"tabulation (max/mean)", "DM R⁴ (max/mean)", "bound c·(2e)"},
		Notes: []string{
			"Lemma 9(2) guarantees max/mean ≤ c = 2e for the DM family with probability 1−o(1); plain families have no such guarantee, though random keys keep them close",
			"tabulation is 3-independent simple tabulation (Pǎtraşcu–Thorup) — the practical family, included for reference",
			"entries are the worst max/mean over the trials",
		},
	}
	for _, n := range cfg.Sizes {
		keys := Keys(n, cfg.Seed+uint64(n))
		m := n / (2 * int(math.Max(1, math.Log(float64(n)))))
		if m < 1 {
			m = 1
		}
		r := int(math.Ceil(math.Sqrt(float64(n))))
		mean := float64(n) / float64(m)
		rand := rng.New(cfg.Seed ^ uint64(7*n))
		worst := func(draw func() func(uint64) uint64) float64 {
			w := 0.0
			for trial := 0; trial < cfg.Trials; trial++ {
				eval := draw()
				if v := float64(hash.MaxLoad(hash.Loads(keys, eval, m))) / mean; v > w {
					w = v
				}
			}
			return w
		}
		pw := worst(func() func(uint64) uint64 { return hash.NewPairwise(rand, uint64(m)).Eval })
		poly := worst(func() func(uint64) uint64 { return hash.NewPoly(rand, 4, uint64(m)).Eval })
		tab := worst(func() func(uint64) uint64 { return hash.NewTabulation(rand, uint64(m)).Eval })
		dm := worst(func() func(uint64) uint64 { return hash.NewDM(rand, 4, uint64(r), uint64(m)).Eval })
		t.Rows = append(t.Rows, []string{
			d2(n), d2(cfg.Trials), f2s(pw), f2s(poly), f2s(tab), f2s(dm), f2s(2 * math.E),
		})
	}
	return t, nil
}

// X2 — the known-distribution extension: the §3 lower bound forbids a
// distribution-OBLIVIOUS algorithm from leveling skew cheaply, but the
// paper's model lets the builder know q (§1.1). The skew-aware dictionary
// replicates hot keys across R whole copies; this experiment measures the
// contention repair across Zipf exponents and replica budgets.
func X2(cfg Config) (*Table, error) {
	n := cfg.FixedN
	keys := Keys(n, cfg.Seed)
	t := &Table{
		ID:    "X2",
		Title: fmt.Sprintf("Known-q extension — exact contention ratio under Zipf (n = %d)", n),
		Columns: []string{"zipf exp", "plain lcds", "skew R=4", "skew R=8", "skew R=16",
			"hot keys", "hot share", "space ×"},
		Notes: []string{
			"plain lcds is the distribution-oblivious Theorem 3 structure; skew columns replicate the hot set across R copies built from the known q",
			"the improvement factor is bounded by R (each hot key's deterministic probe mass divides by R) — the lower bound's price, paid in space, not probes",
			"returns diminish: once the heaviest NON-hot key dominates, more copies only add cells and the ratio can tick back up",
			"hot keys / hot share / space× are for R=8",
		},
	}
	for _, exp := range []float64{0.6, 0.8, 1.0, 1.2} {
		zipf := dist.NewZipf(keys, exp)
		support := zipf.Support()
		plain, err := core.Build(keys, core.Params{}, cfg.Seed)
		if err != nil {
			return nil, err
		}
		ex, err := contention.Exact(plain, support)
		if err != nil {
			return nil, err
		}
		row := []string{f2s(exp), f1(ex.RatioStep())}
		var hot8 *skew.Dict
		for _, r := range []int{4, 8, 16} {
			sd, err := skew.Build(support, skew.Params{Replicas: r}, cfg.Seed)
			if err != nil {
				return nil, err
			}
			a, err := sd.Analyze(support)
			if err != nil {
				return nil, err
			}
			row = append(row, f1(a.RatioStep()))
			if r == 8 {
				hot8 = sd
			}
		}
		a8, err := hot8.Analyze(support)
		if err != nil {
			return nil, err
		}
		row = append(row,
			d2(hot8.HotKeys()), f2s(a8.HotShare),
			f2s(float64(hot8.Cells())/float64(plain.Table().Size())))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// d2 formats an int. The package-level helper d is shadowed inside X1 by
// the dictionary variable, so this file uses a distinct name throughout.
func d2(v int) string { return fmt.Sprintf("%d", v) }
