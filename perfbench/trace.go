package main

import (
	"sync"
	"sync/atomic"
	"time"

	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
	"imflow/internal/retrieval"
)

// The traced run times calls into the retrieval and maxflow layers from
// wrappers installed through their public construction hooks
// (serve.Options.NewSolver, retrieval.NewPRBinaryWithEngine); no program
// code changes. Each wrapper is owned by one serve worker and written
// only from that worker's goroutine; the recorded spans are read after
// the server has drained.

// solveSpan is one solver call: its wall time, the part of it spent in
// max-flow engine runs, and the solver's own work counters.
type solveSpan struct {
	total, engine time.Duration
	stats         retrieval.Stats
}

// tracedSolver wraps the serving path's default solver, pr-binary with
// the sequential FIFO push-relabel engine. It forwards the whole
// retrieval.FailoverSolver interface, so FailDisk keeps working and the
// traced server runs the same program as the untraced one.
type tracedSolver struct {
	inner   *retrieval.PRBinary
	engine  time.Duration // engine time within the current call
	runs    []time.Duration
	solves  []solveSpan
	repairs []time.Duration
	// pending is the solve and repair time since the worker last
	// committed a schedule; OnSchedule takes it.
	pending time.Duration
	// sched is the schedule the solver last wrote, registered in reg
	// (when non-nil) so OnSchedule can find the solver from it.
	sched *retrieval.Schedule
	reg   *sync.Map
	// on gates recording to the measured window.
	on *atomic.Bool
}

func newTracedSolver(reg *sync.Map, on *atomic.Bool) *tracedSolver {
	t := &tracedSolver{reg: reg, on: on}
	t.inner = retrieval.NewPRBinaryWithEngine("pr-binary", func(g *flowgraph.Graph) maxflow.Engine {
		return &tracedEngine{Engine: retrieval.SequentialEngine(g), owner: t}
	})
	return t
}

// Name implements retrieval.Solver.
func (t *tracedSolver) Name() string { return t.inner.Name() }

// Solve implements retrieval.Solver.
func (t *tracedSolver) Solve(p *retrieval.Problem) (*retrieval.Result, error) {
	res := &retrieval.Result{}
	if err := t.SolveInto(p, res); err != nil {
		return nil, err
	}
	return res, nil
}

// SolveInto implements retrieval.ReusableSolver.
func (t *tracedSolver) SolveInto(p *retrieval.Problem, res *retrieval.Result) error {
	return t.solve(res, func() error { return t.inner.SolveInto(p, res) })
}

// SolveMaskedInto implements retrieval.FailoverSolver.
func (t *tracedSolver) SolveMaskedInto(p *retrieval.Problem, mask *retrieval.DiskMask, res *retrieval.Result) error {
	return t.solve(res, func() error { return t.inner.SolveMaskedInto(p, mask, res) })
}

// MarkFailed implements retrieval.FailoverSolver.
func (t *tracedSolver) MarkFailed(disk int, res *retrieval.Result) error {
	if !t.on.Load() {
		return t.inner.MarkFailed(disk, res)
	}
	start := time.Now()
	err := t.inner.MarkFailed(disk, res)
	d := time.Since(start)
	t.repairs = append(t.repairs, d)
	t.pending += d
	return err
}

func (t *tracedSolver) solve(res *retrieval.Result, call func() error) error {
	if !t.on.Load() {
		return call()
	}
	t.engine = 0
	start := time.Now()
	err := call()
	d := time.Since(start)
	t.solves = append(t.solves, solveSpan{total: d, engine: t.engine, stats: res.Stats})
	t.pending += d
	if t.reg != nil && res.Schedule != t.sched {
		t.sched = res.Schedule
		t.reg.Store(res.Schedule, t)
	}
	return err
}

// tracedEngine times each max-flow run for its owning solver.
type tracedEngine struct {
	maxflow.Engine
	owner *tracedSolver
}

// Run implements maxflow.Engine.
func (e *tracedEngine) Run(s, t int) int64 {
	if !e.owner.on.Load() {
		return e.Engine.Run(s, t)
	}
	start := time.Now()
	f := e.Engine.Run(s, t)
	d := time.Since(start)
	e.owner.engine += d
	e.owner.runs = append(e.owner.runs, d)
	return f
}

// commit is one schedule a worker committed, as its OnSchedule hook saw
// it: the model response time and the solver time spent on it.
type commit struct {
	resp  int64 // µs
	solve time.Duration
}

// tracer owns the traced run's solvers and joins their spans to the
// schedules the workers commit.
type tracer struct {
	mu      sync.Mutex
	solvers []*tracedSolver // guarded by mu
	// bySched finds the solver whose pinned result holds a schedule:
	// serve hands each worker's Result.Schedule to OnSchedule, so the
	// pointer identifies the worker's solver.
	bySched sync.Map // *retrieval.Schedule -> *tracedSolver
	// commits[w] are worker w's committed schedules in order; only worker
	// w's goroutine appends.
	commits [][]commit
	// on gates every wrapper: spans are recorded inside the measured
	// window only, not during set-up.
	on atomic.Bool
}

func newTracer(workers int) *tracer {
	return &tracer{commits: make([][]commit, workers)}
}

// newSolver is the serve.Options.NewSolver factory of the traced run.
func (tr *tracer) newSolver() retrieval.ReusableSolver {
	t := newTracedSolver(&tr.bySched, &tr.on)
	tr.mu.Lock()
	tr.solvers = append(tr.solvers, t)
	tr.mu.Unlock()
	return t
}

// observe is called from serve's OnSchedule hook.
func (tr *tracer) observe(worker int, s *retrieval.Schedule) {
	var solve time.Duration
	if v, ok := tr.bySched.Load(s); ok {
		t := v.(*tracedSolver)
		solve, t.pending = t.pending, 0
	}
	tr.commits[worker] = append(tr.commits[worker], commit{resp: int64(s.ResponseTime), solve: solve})
}
