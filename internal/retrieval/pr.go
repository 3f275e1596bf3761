package retrieval

import (
	"fmt"

	"imflow/internal/cost"
	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
	"imflow/internal/maxflow/parallel"
	"imflow/internal/threads"
)

// EngineFactory builds a max-flow engine bound to a network's graph. The
// push-relabel solvers are parameterized over it so the sequential FIFO
// engine and the lock-free parallel engine share all retrieval logic.
type EngineFactory func(*flowgraph.Graph) maxflow.Engine

// SequentialEngine builds the FIFO push-relabel engine with the exact
// height and gap heuristics (Algorithm 4's implementation).
func SequentialEngine(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewPushRelabel(g) }

// HighestLabelEngine builds the highest-label push-relabel variant — an
// ablation point over the paper's FIFO vertex-selection rule.
func HighestLabelEngine(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewHighestLabel(g) }

// ParallelEngine builds the lock-free multithreaded push-relabel engine of
// Section V with the given worker count. threads <= 0 selects
// runtime.GOMAXPROCS(0), the scheduler's actual parallelism budget.
func ParallelEngine(n int) EngineFactory {
	n = threads.Normalize(n)
	return func(g *flowgraph.Graph) maxflow.Engine { return parallel.New(g, n) }
}

// PRIncremental is Algorithm 5: the integrated push-relabel solution that
// starts all disk-edge capacities at zero and alternates IncrementMinCost
// steps with push-relabel runs, conserving the flow between runs. Its
// worst case is O(c*|Q|^4) but the flow conservation makes each run cheap
// in practice.
type PRIncremental struct {
	factory EngineFactory
	net     network
	engine  maxflow.Engine
	st      incrementState
}

// NewPRIncremental returns the Algorithm 5 solver with the sequential
// engine.
func NewPRIncremental() *PRIncremental {
	return &PRIncremental{factory: SequentialEngine}
}

// Name implements Solver.
func (*PRIncremental) Name() string { return "pr-incremental" }

// Solve implements Solver.
func (s *PRIncremental) Solve(p *Problem) (*Result, error) {
	res := &Result{}
	if err := s.SolveInto(p, res); err != nil {
		return nil, err
	}
	return res, nil
}

// SolveInto implements ReusableSolver.
//
//imflow:det
func (s *PRIncremental) SolveInto(p *Problem, res *Result) error {
	return s.solveMasked(p, nil, res)
}

// solveMasked is the shared body of SolveInto (nil mask) and
// SolveMaskedInto. The noalloc analyzer holds it to zero steady-state
// allocations.
//
//imflow:noalloc
func (s *PRIncremental) solveMasked(p *Problem, mask *DiskMask, res *Result) error {
	if err := p.Validate(); err != nil {
		return err
	}
	net := &s.net
	// A warm start reuses the previous build; the threshold walk must
	// still begin from zero flow and zero capacities (see warm.go), so
	// only the rebuild itself is skipped.
	warm := net.prepare(p, mask)
	if warm {
		net.resetRun()
	}
	if s.engine == nil {
		s.engine = s.factory(net.g)
	} else {
		s.engine.Reset()
	}
	engine := s.engine
	*engine.Metrics() = maxflow.Metrics{}
	s.st.reset(net)
	res.Stats = Stats{Engine: engine.Name(), Warm: warm}
	target := net.target()
	var flow int64
	for flow < target {
		if s.st.incrementMinCost(net) == cost.Max {
			//lint:ignore noalloc cold failure exit; aborts the solve, never the steady state
			return fmt.Errorf("retrieval: flow %d short of %d with all disk edges saturated: %w", flow, target, ErrInfeasible)
		}
		res.Stats.Increments++
		flow = engine.Run(net.s, net.t)
		res.Stats.MaxflowRuns++
		maxflow.Audit(net.g, net.s, net.t)
	}
	res.Stats.Flow = *engine.Metrics()
	return net.finishDegraded(res)
}

// PRBinary is Algorithm 6: the integrated push-relabel solver with binary
// capacity scaling. A binary search over candidate response times
// [tmin, tmax) brings the capacities within N increments of the optimum in
// O(log |Q|) max-flow runs; flows computed at infeasible midpoints are
// stored and conserved (they remain valid when capacities grow), while
// flows computed at feasible midpoints are rolled back (the optimum may be
// lower). The final stretch runs Algorithm 5 from tmin's capacities.
// The sequential search opens at the capacity-cut bound (cutSearch);
// where that bound is feasible, as on most Experiment 2 range queries,
// the solve ends after three max-flow runs.
//
// With Conserve = false every max-flow run starts from the zero flow — the
// black-box algorithm of the paper's reference [12], kept as the baseline
// the integrated solver is measured against.
type PRBinary struct {
	name     string
	factory  EngineFactory
	conserve bool
	net      network
	engine   maxflow.Engine
	st       incrementState
	saved    []int64
	mask     DiskMask // scratch for MarkFailed's grown mask
}

// NewPRBinary returns the integrated Algorithm 6 solver (sequential
// engine, flow conservation on).
func NewPRBinary() *PRBinary {
	return &PRBinary{name: "pr-binary", factory: SequentialEngine, conserve: true}
}

// NewPRBinaryBlackBox returns the black-box baseline of [12]: identical
// control flow, but every max-flow run starts from zero flow.
func NewPRBinaryBlackBox() *PRBinary {
	return &PRBinary{name: "pr-binary-blackbox", factory: SequentialEngine, conserve: false}
}

// NewPRBinaryHighestLabel returns the integrated Algorithm 6 solver backed
// by the highest-label push-relabel engine instead of FIFO — used to
// ablate the paper's vertex-selection choice.
func NewPRBinaryHighestLabel() *PRBinary {
	return &PRBinary{name: "pr-binary-highest", factory: HighestLabelEngine, conserve: true}
}

// NewPRBinaryWithEngine returns the integrated Algorithm 6 solver backed
// by an arbitrary max-flow engine. The benchmark harness uses it to drive
// every engine in the repository through the identical integrated solve
// path; conservation stays on.
func NewPRBinaryWithEngine(name string, factory EngineFactory) *PRBinary {
	return &PRBinary{name: name, factory: factory, conserve: true}
}

// NewPRBinaryParallel returns the integrated Algorithm 6 solver backed by
// the lock-free parallel push-relabel engine of Section V. n <= 0
// selects runtime.GOMAXPROCS(0).
func NewPRBinaryParallel(n int) *PRBinary {
	n = threads.Normalize(n)
	return &PRBinary{
		name:     fmt.Sprintf("pr-binary-parallel(%d)", n),
		factory:  ParallelEngine(n),
		conserve: true,
	}
}

// Name implements Solver.
func (s *PRBinary) Name() string { return s.name }

// Solve implements Solver.
func (s *PRBinary) Solve(p *Problem) (*Result, error) {
	res := &Result{}
	if err := s.SolveInto(p, res); err != nil {
		return nil, err
	}
	return res, nil
}

// SolveInto implements ReusableSolver.
//
//imflow:det
func (s *PRBinary) SolveInto(p *Problem, res *Result) error {
	return s.solveMasked(p, nil, res)
}

// solveMasked is the shared body of SolveInto (nil mask) and
// SolveMaskedInto. The noalloc analyzer holds it to zero steady-state
// allocations.
//
//imflow:noalloc
func (s *PRBinary) solveMasked(p *Problem, mask *DiskMask, res *Result) error {
	if err := p.Validate(); err != nil {
		return err
	}
	net := &s.net
	// A conserving warm start carries the previous query's maximal flow
	// into this solve: instead of the cold path's snapshot/rollback dance,
	// every capacity probe drains the carried flow to the probe's
	// capacities (DrainExcess) and augments the difference. Probe
	// feasibility depends only on the capacities, so the bracket
	// trajectory and every counter stay bit-identical to a cold solve.
	// The black-box baseline zeroes flows before every run either way, so
	// its warm start only skips the rebuild.
	warm := net.prepare(p, mask)
	if warm && !s.conserve {
		net.g.ZeroFlows()
	}
	if s.engine == nil {
		s.engine = s.factory(net.g)
	} else {
		s.engine.Reset()
	}
	engine := s.engine
	*engine.Metrics() = maxflow.Metrics{}
	res.Stats = Stats{Engine: engine.Name(), Warm: warm}
	target := net.target()

	// Bracket the optimum. The floor tmin assumes the theoretical lower
	// bound |Q|/N on the cheapest disk, minus one block of the fastest
	// disk. We additionally clamp tmin below the fastest single-block
	// completion time, which makes its infeasibility unconditional (any
	// schedule retrieves at least one block from some disk). The ceiling
	// tmax is the makespan of every live disk serving all of its replicas:
	// that schedule is feasible, and a live disk holds no more than target
	// buckets. All bracket arithmetic saturates at cost.Max rather than
	// wrapping.
	minSpeed := cost.Max
	tmin := cost.Max
	nTotal := cost.Micros(len(p.Disks))
	for k, dp := range net.params {
		if net.maskedSlot[k] {
			continue // failed disks do not bound the bracket
		}
		perDisk := cost.SatMul(cost.Micros(target), dp.Service) / nTotal
		if lo := cost.SatAdd(cost.SatAdd(dp.Delay, dp.Load), perDisk); lo < tmin {
			tmin = lo
		}
		if dp.Service < minSpeed {
			minSpeed = dp.Service
		}
	}
	tmin = cost.SatSub(tmin, minSpeed)
	if single := cost.SatSub(minSingleBlock(net), minSpeed); single < tmin {
		tmin = single
	}
	if tmin < 0 {
		tmin = 0
	}
	tmax := net.allReplicasTime()

	if s.conserve && !warm {
		s.saved = net.g.SnapshotFlows(s.saved) // all-zero snapshot
	}
	var done bool
	if tmin, done = s.cutSearch(target, tmin, tmax, warm, res); done {
		// The cut bound is feasible, so it is the optimum: the flow
		// in net.g is maximal at its capacities.
		s.st.reset(net)
		res.Stats.Flow = *engine.Metrics()
		return net.finishDegraded(res)
	}
	// The paper loops while (tmax - tmin) >= minSpeed over reals; with
	// integer microseconds that admits a no-progress iteration when the
	// bracket narrows to exactly minSpeed = 1us (tmid == tmin), so the
	// strict comparison is required. The final incremental stretch closes
	// any remaining gap either way.
	for cost.SatSub(tmax, tmin) > minSpeed {
		tmid := cost.SatAdd(tmin, cost.SatSub(tmax, tmin)/2)
		if s.probe(tmid, target, warm, res) {
			// Feasible: the optimum may be lower, so roll back to the last
			// infeasible flow state and lower the ceiling. On the warm path
			// the next probe's DrainExcess performs the equivalent cut-down
			// in place, so there is nothing to restore.
			if s.conserve && !warm {
				net.g.RestoreFlows(s.saved)
			}
			tmax = tmid
		} else {
			tmin = tmid
		}
	}

	// Final stretch: Algorithm 5 from tmin's capacities. At most N more
	// increments separate tmin from the optimum.
	if s.conserve {
		if !warm {
			net.g.RestoreFlows(s.saved)
		}
	} else {
		net.g.ZeroFlows()
	}
	net.capsForTime(tmin)
	if s.conserve && warm {
		net.g.DrainExcess(net.s, net.t)
	}
	s.st.reset(net)
	flow := engine.Run(net.s, net.t)
	res.Stats.MaxflowRuns++
	maxflow.Audit(net.g, net.s, net.t)
	for flow < target {
		if s.st.incrementMinCost(net) == cost.Max {
			//lint:ignore noalloc cold failure exit; aborts the solve, never the steady state
			return fmt.Errorf("retrieval: flow %d short of %d with all disk edges saturated: %w", flow, target, ErrInfeasible)
		}
		res.Stats.Increments++
		if !s.conserve {
			net.g.ZeroFlows()
		}
		flow = engine.Run(net.s, net.t)
		res.Stats.MaxflowRuns++
		maxflow.Audit(net.g, net.s, net.t)
	}
	res.Stats.Flow = *engine.Metrics()
	return net.finishDegraded(res)
}

// cutSearch opens the sequential search at the capacity-cut bound. The
// cut separating the sink from every other vertex has capacity
// capSum(t), so no threshold whose capSum falls short of target is
// feasible; bisecting capSum (no max-flow run) finds tcut, the smallest
// threshold that passes that test. Two shaping runs below tcut — the
// midpoint of [tmin, tcut), then tcut-1, both infeasible by the bound —
// are stored like any infeasible probe: they route flow off the slow
// disks before the decisive probe at tcut, which conservation then
// starts from. A feasible tcut is the optimum (tcut-1 is infeasible),
// reported as done with its maximal flow left in net.g; otherwise the
// returned floor is tcut and the bisection continues above it.
func (s *PRBinary) cutSearch(target int64, tmin, tmax cost.Micros, warm bool, res *Result) (cost.Micros, bool) {
	net := &s.net
	if target == 0 {
		return tmin, false // every bucket is dead: nothing to retrieve
	}
	// tmin lies below every single-block completion time (capSum 0) and
	// tmax is feasible (capSum >= target), so tcut lies in (tmin, tmax].
	tcut := net.cutBound(tmin, tmax, target)
	below := cost.SatSub(tcut, 1)
	if mid := cost.SatAdd(tmin, cost.SatSub(tcut, tmin)/2); mid < below {
		s.probe(mid, target, warm, res)
	}
	s.probe(below, target, warm, res)
	return tcut, s.probe(tcut, target, warm, res)
}

// probe runs the engine at threshold t's capacities and reports whether
// the flow reaches target. With conservation the run starts from the
// flow in net.g (drained to the new capacities on the warm path); an
// infeasible flow is stored on the cold path, since it stays valid at
// every larger capacity setting. Rolling back after a feasible probe is
// the caller's choice. The black-box baseline starts every run from zero.
func (s *PRBinary) probe(t cost.Micros, target int64, warm bool, res *Result) bool {
	net := &s.net
	net.capsForTime(t)
	if s.conserve {
		if warm {
			// Warm conservation: drain the carried flow down to this
			// probe's capacities and let the engine augment the rest.
			net.g.DrainExcess(net.s, net.t)
		}
	} else {
		net.g.ZeroFlows()
	}
	flow := s.engine.Run(net.s, net.t)
	res.Stats.MaxflowRuns++
	res.Stats.BinarySteps++
	maxflow.Audit(net.g, net.s, net.t)
	if flow == target {
		return true
	}
	if s.conserve && !warm {
		s.saved = net.g.SnapshotFlows(s.saved)
	}
	return false
}

// allReplicasTime returns the earliest threshold at which every live disk
// can serve every bucket it holds: max_k Finish_k(inDeg_k). Each live
// bucket then has a full path to the sink, so the threshold is feasible.
func (net *network) allReplicasTime() cost.Micros {
	var worst cost.Micros
	for k, dp := range net.params {
		if net.maskedSlot[k] {
			continue
		}
		if f := dp.Finish(net.inDeg[k]); f > worst {
			worst = f
		}
	}
	return worst
}

// minSingleBlock returns the fastest possible single-block completion time
// over the live participating disks.
func minSingleBlock(net *network) cost.Micros {
	best := cost.Max
	for k, dp := range net.params {
		if net.maskedSlot[k] {
			continue
		}
		if f := dp.Finish(1); f < best {
			best = f
		}
	}
	return best
}
