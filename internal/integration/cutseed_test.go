package integration

import (
	"testing"

	"imflow/internal/cost"
	"imflow/internal/experiment"
	"imflow/internal/query"
	"imflow/internal/retrieval"
	"imflow/internal/sim"
)

// TestCutSeededWorkPins pins the max-flow work of pr-binary, whose
// sequential search opens at the capacity-cut bound, on 50 queries of
// three paper cells. The bounds are set against the plain Algorithm 6
// bisection, which measured 18.94, 18.88 and 19.14 mean runs per query
// on these exact batches (commit eebf705): the solve-large serving cell
// must fall to at most 6, and the Exp 5 cells, where the cut bound is
// rarely feasible, may cost at most 3 more.
func TestCutSeededWorkPins(t *testing.T) {
	cells := []struct {
		exp   int
		alloc experiment.AllocKind
		typ   query.Type
		load  query.Load
		max   float64
	}{
		{2, experiment.RDA, query.Range, query.Load2, 6},
		{5, experiment.Dependent, query.Arbitrary, query.Load2, 18.88 + 3},
		{5, experiment.Orthogonal, query.Arbitrary, query.Load1, 19.14 + 3},
	}
	for _, c := range cells {
		cfg := experiment.Config{ExpNum: c.exp, Alloc: c.alloc, Type: c.typ, Load: c.load, N: 60, Queries: 50, Seed: 1}
		inst, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := retrieval.NewPRBinary()
		var res retrieval.Result
		runs := 0
		for i, p := range inst.Problems {
			if err := s.SolveInto(p, &res); err != nil {
				t.Fatalf("%v query %d: %v", cfg, i, err)
			}
			runs += res.Stats.MaxflowRuns
		}
		mean := float64(runs) / float64(len(inst.Problems))
		t.Logf("%v: %.2f max-flow runs per query", cfg, mean)
		if mean > c.max {
			t.Errorf("%v: %.2f max-flow runs per query, want at most %.2f", cfg, mean, c.max)
		}
	}
}

// TestCutSeededScheduleQuality replays one fixed Poisson stream through
// the simulator for each benchmark cell (imflow-serve's cell seed 42,
// stream seed 1) and bounds pr-binary's mean model response time by the
// plain Algorithm 6 bisection's on the same stream plus 0.5%. The
// simulator's clock is deterministic, so the difference is schedule
// quality alone. The reference means were measured at commit eebf705,
// the last with the plain bisection.
func TestCutSeededScheduleQuality(t *testing.T) {
	cells := []struct {
		load    query.Load
		n       int
		qps     float64
		queries int
		refMs   float64
	}{
		{query.Load2, 60, 40, 800, 26.666158},  // solve-large
		{query.Load3, 20, 800, 8000, 4.601307}, // edge-small
	}
	for _, c := range cells {
		cfg := experiment.Config{ExpNum: 2, Alloc: experiment.RDA, Type: query.Range, Load: c.load, N: c.n, Queries: 1, Seed: 42}
		inst, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		stream, err := sim.StreamSpec{
			System: inst.System, Alloc: inst.Alloc, Type: query.Range, Load: c.load,
			Arrivals: sim.PoissonArrivals{Mean: cost.FromMillis(1000 / c.qps)},
			Queries:  c.queries, Seed: 1,
		}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := sim.Compare(inst.System, stream, sim.SolverScheduler{Solver: retrieval.NewPRBinary()})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v at %v qps: mean response %.6f ms (plain bisection %.6f ms)", cfg, c.qps, cmp[0].MeanMs, c.refMs)
		if limit := c.refMs * 1.005; cmp[0].MeanMs > limit {
			t.Errorf("%v at %v qps: mean response %.6f ms, want at most %.6f ms", cfg, c.qps, cmp[0].MeanMs, limit)
		}
	}
}
