package retrieval

import (
	"sync"

	"imflow/internal/cost"
	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
)

// probeCtx is one speculative probe's pinned working set: a scratch copy
// of the shared network's graph, an engine bound to it, and the candidate
// threshold it evaluates. The graph and engine persist across rounds and
// across solves, so steady-state probing reuses every backing array.
type probeCtx struct {
	g      *flowgraph.Graph
	engine maxflow.Engine
	t      cost.Micros
	flow   int64
}

// speculativeSearch replaces the sequential bisection of solveMasked when
// specProbes >= 2: each round spreads up to specProbes distinct candidate
// thresholds evenly across the open bracket (tmin, tmax), solves them
// concurrently on the per-goroutine scratch graphs, and exploits the
// monotonicity of feasibility in t — every probe below the optimum is
// infeasible, every probe at or above it is feasible — to jump the
// bracket to the gap between the largest infeasible and smallest feasible
// probe. Per the conservation rules of the sequential search, only an
// infeasible probe's flow is committed back into net.g (it remains valid
// at every larger capacity setting); feasible probes merely lower the
// ceiling. The caller re-derives tmin's capacities and drains the
// committed flow to them and runs the final incremental stretch from
// there. Every committed flow is maximal at an infeasible threshold, so
// the stretch ends at the optimal response time.
//
// Invariant between rounds: net.g.Flow holds the most recently committed
// infeasible flow — feasible at capsForTime(tmin) — or the solve's
// starting flow (zero when cold, the warm carried flow otherwise) when no
// probe has been infeasible yet.
//
// Returns the final floor tmin. Probe goroutines, their scratch graphs,
// and the WaitGroup allocate; the speculative solver is exempt from the
// sequential zero-alloc gate by name ("spec"), exactly like the parallel
// engine.
//
//imflow:allocok
func (s *PRBinary) speculativeSearch(res *Result, target int64, tmin, tmax, minSpeed cost.Micros) cost.Micros {
	net := &s.net
	if len(s.probes) < s.specProbes {
		s.probes = make([]probeCtx, s.specProbes)
		for i := range s.probes {
			s.probes[i].g = flowgraph.New(net.g.N)
		}
	}
	for cost.SatSub(tmax, tmin) > minSpeed {
		span := cost.SatSub(tmax, tmin)
		step := span / cost.Micros(s.specProbes+1)
		k := 0
		for i := 1; i <= s.specProbes; i++ {
			ti := cost.SatAdd(tmin, cost.SatMul(step, cost.Micros(i)))
			if ti <= tmin || ti >= tmax {
				continue // saturated or degenerate spacing
			}
			if k > 0 && s.probes[k-1].t == ti {
				continue
			}
			s.probes[k].t = ti
			k++
		}
		if k == 0 {
			// Bracket too narrow for interior spread: probe the sequential
			// midpoint (span > minSpeed >= 1 keeps it strictly interior).
			s.probes[0].t = cost.SatAdd(tmin, span/2)
			k = 1
		}
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			pc := &s.probes[i]
			wg.Add(1)
			//lint:ignore detpath probes run on private graph copies and only tighten the bracket; the commit rules keep the final schedule identical to the sequential search
			go func() {
				defer wg.Done()
				pc.g.CopyFrom(net.g)
				net.capsForTimeInto(pc.g, pc.t)
				// The committed flow may exceed this probe's lower
				// capacities (warm carry, or a commit from a larger t in a
				// previous round is impossible — commits only raise tmin —
				// but the warm carried flow is unconstrained): drain it
				// feasible, then augment.
				pc.g.DrainExcess(net.s, net.t)
				if pc.engine == nil {
					pc.engine = s.factory(pc.g)
				} else {
					pc.engine.Reset()
				}
				*pc.engine.Metrics() = maxflow.Metrics{}
				pc.flow = pc.engine.Run(net.s, net.t)
				maxflow.Audit(pc.g, net.s, net.t)
			}()
		}
		wg.Wait()
		res.Stats.MaxflowRuns += k
		res.Stats.BinarySteps += k
		lo, hi := -1, -1
		for i := 0; i < k; i++ {
			engine := s.probes[i].engine
			s.engine.Metrics().Add(engine.Metrics())
			if s.probes[i].flow != target {
				lo = i
			} else if hi < 0 {
				hi = i
			}
		}
		if lo >= 0 && hi >= 0 && lo > hi {
			// Feasibility is monotone in t; a feasible probe below an
			// infeasible one means a max-flow run returned a non-maximum
			// flow.
			panic("retrieval: speculative probes violate feasibility monotonicity")
		}
		if lo >= 0 {
			// Commit the largest infeasible probe: its flow is exactly the
			// state the sequential search would have stored at this floor.
			net.g.RestoreFlows(s.probes[lo].g.Flow)
			tmin = s.probes[lo].t
		}
		if hi >= 0 {
			tmax = s.probes[hi].t
		}
	}
	return tmin
}
