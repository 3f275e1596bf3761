package retrieval_test

import (
	"errors"
	"fmt"
	"testing"

	"imflow/internal/cost"
	"imflow/internal/experiment"
	"imflow/internal/query"
	"imflow/internal/retrieval"
	"imflow/internal/xrand"
)

// cutCase is one problem of the cut-bound property test, with an optional
// disk mask.
type cutCase struct {
	name string
	p    *retrieval.Problem
	mask *retrieval.DiskMask
}

// maskSome fails one or two of the disks holding p's replicas.
func maskSome(p *retrieval.Problem, rng *xrand.Source) *retrieval.DiskMask {
	var used []int
	seen := make(map[int]bool)
	for _, reps := range p.Replicas {
		for _, d := range reps {
			if !seen[d] {
				seen[d] = true
				used = append(used, d)
			}
		}
	}
	mask := retrieval.NewDiskMask(len(p.Disks))
	for _, i := range rng.Sample(len(used), min(len(used), 1+rng.Intn(2))) {
		mask.MarkFailed(used[i])
	}
	return mask
}

// cutCases draws random problems (half of them in extreme parameter
// regimes) and paper-grid problems of every Table IV experiment and
// allocation scheme, each healthy and with one or two failed disks.
func cutCases(t *testing.T) []cutCase {
	rng := xrand.New(0xc07)
	var out []cutCase
	add := func(name string, p *retrieval.Problem) {
		out = append(out,
			cutCase{name: name, p: p},
			cutCase{name: name + "/masked", p: p, mask: maskSome(p, rng)})
	}
	for seed := uint64(1); seed <= 60; seed++ {
		add(fmt.Sprintf("random/%d", seed), retrieval.ProblemFromSeed(seed, seed%2 == 0))
	}
	for exp := 1; exp <= 5; exp++ {
		for _, alloc := range experiment.AllKinds {
			for _, typ := range []query.Type{query.Range, query.Arbitrary} {
				cfg := experiment.Config{ExpNum: exp, Alloc: alloc, Type: typ, Load: query.Load2, N: 8, Queries: 3, Seed: 31}
				inst, err := cfg.Build()
				if err != nil {
					continue // orthogonal allocation needs exactly two sites
				}
				for i, p := range inst.Problems {
					add(fmt.Sprintf("%v/%d", cfg, i), p)
				}
			}
		}
	}
	if len(out) < 200 {
		t.Fatalf("only %d cases", len(out))
	}
	return out
}

// solveMasked runs one solve and keeps only the response time and the
// work counters; a partial retrieval (dead buckets) is not an error here.
func solveMasked(s retrieval.FailoverSolver, c cutCase, res *retrieval.Result) error {
	err := s.SolveMaskedInto(c.p, c.mask, res)
	var inf *retrieval.InfeasibleError
	if errors.As(err, &inf) {
		return nil
	}
	return err
}

type counters struct{ runs, increments, steps int }

func countersOf(s retrieval.Stats) counters {
	return counters{s.MaxflowRuns, s.Increments, s.BinarySteps}
}

// TestPropertyCutBound checks the capacity-cut bound the sequential
// Algorithm 6 search opens at, on random, paper-grid and masked problems:
// the summed capacities fall short of the target one microsecond below
// tcut and reach it at tcut; the optimum is never below tcut; pr-binary
// and the black-box baseline return the oracle's response time; and a
// warm re-solve of a load-perturbed problem reports the same work
// counters as a cold solve of it.
func TestPropertyCutBound(t *testing.T) {
	oracle := retrieval.NewOracle()
	solvers := []func() *retrieval.PRBinary{retrieval.NewPRBinary, retrieval.NewPRBinaryBlackBox}
	rng := xrand.New(0x10ad)
	for _, c := range cutCases(t) {
		tcut, below, at, target := retrieval.CutBound(c.p, c.mask)
		if target > 0 && (below >= target || at < target) {
			t.Fatalf("%s: capSum(tcut-1)=%d, capSum(tcut)=%d around target %d (tcut %v)", c.name, below, at, target, tcut)
		}
		want, err := oracle.SolveMasked(c.p, c.mask)
		var inf *retrieval.InfeasibleError
		if err != nil && !errors.As(err, &inf) {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		if target > 0 && want.Schedule.ResponseTime < tcut {
			t.Fatalf("%s: optimum %v below the cut bound %v", c.name, want.Schedule.ResponseTime, tcut)
		}
		for _, mk := range solvers {
			s, cold := mk(), mk()
			var res, fresh retrieval.Result
			if err := solveMasked(s, c, &res); err != nil {
				t.Fatalf("%s: %s: %v", c.name, s.Name(), err)
			}
			if res.Schedule.ResponseTime != want.Schedule.ResponseTime {
				t.Fatalf("%s: %s response %v, oracle %v", c.name, s.Name(), res.Schedule.ResponseTime, want.Schedule.ResponseTime)
			}
			// Re-solve the same structure under new loads: s warm-starts,
			// cold solves it from scratch.
			saved := make([]cost.Micros, len(c.p.Disks))
			for j := range c.p.Disks {
				saved[j] = c.p.Disks[j].Load
				c.p.Disks[j].Load = cost.Micros(rng.Intn(1_500_000))
			}
			errWarm, errCold := solveMasked(s, c, &res), solveMasked(cold, c, &fresh)
			for j := range c.p.Disks {
				c.p.Disks[j].Load = saved[j]
			}
			if errWarm != nil || errCold != nil {
				t.Fatalf("%s: %s warm error %v, cold error %v", c.name, s.Name(), errWarm, errCold)
			}
			if !res.Stats.Warm {
				t.Fatalf("%s: %s did not warm-start", c.name, s.Name())
			}
			if res.Schedule.ResponseTime != fresh.Schedule.ResponseTime || countersOf(res.Stats) != countersOf(fresh.Stats) {
				t.Fatalf("%s: %s warm response %v counters %+v, cold %v %+v", c.name, s.Name(),
					res.Schedule.ResponseTime, countersOf(res.Stats), fresh.Schedule.ResponseTime, countersOf(fresh.Stats))
			}
		}
	}
}
