package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"imflow/internal/cost"
	"imflow/internal/experiment"
	"imflow/internal/fault"
	"imflow/internal/httpd"
	"imflow/internal/query"
	"imflow/internal/retrieval"
	"imflow/internal/serve"
	"imflow/internal/stats"
)

// shards is imflow-serve's default shard count.
const shards = 4

// setups is how many times an untraced run sets up; setup_s is the
// median of their CPU times.
const setups = 5

// driftBound is the stationarity guard: a run whose nominal phase ends
// with model responses longer than it began, by more than this share of
// the phase's mean model response, is invalid. It equals
// model_response_ms's bound in BENCHMARK.json.
const driftBound = 0.25

// Fault schedule of the churn workload: per-disk MTBF and MTTR, with at
// most one disk down at a time. Across the 40 disks of its cell a disk
// fails about every two seconds and stays down for about half a second.
// The schedule is drawn from the cell seed, so it is part of the
// workload like the recurring shapes: with traffic concentrated on a few
// shapes, which disks fail decides the model response, and a schedule
// drawn per seed would make every seed a different workload.
const (
	faultMTBF = 80 * time.Second
	faultMTTR = 500 * time.Millisecond
)

type bench struct {
	w      workload
	seed   uint64
	window time.Duration
	traced bool
	clock  time.Time // the run clock; every record is an offset from it
	inst   *experiment.Instance
	in     inputs
	stride int64 // the correctness sampler keeps every stride-th schedule
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	provenance map[string]any
	result     result
	// invalid, when set, refuses the run: it is reported instead of the
	// result.
	invalid error
}

// server is one live front end on a loopback listener.
type server struct {
	h      *httpd.Server
	hs     *http.Server
	addr   string
	served chan error
	check  *sampler
	trace  *tracer // nil when untraced
}

// setup builds the cell, starts a server over it and warms it up with
// the warm-up bodies, closed loop. It returns the server, the process
// CPU time all of that took, and the longest model response seen, an
// upper bound on the model backlog warm-up left behind. On error the
// returned server, when not nil, must still be stopped.
func (b *bench) setup(traced bool) (*server, time.Duration, time.Duration, error) {
	cpu0 := processCPU()
	inst, err := b.w.cell().Build()
	if err != nil {
		return nil, 0, 0, err
	}
	srv := &server{check: newSampler(b.clock, shards, b.stride, b.w.samples*samplesPerCheck(b.w), b.w.faults)}
	sopt := serve.Options{Workers: shards}
	if traced {
		srv.trace = newTracer(shards)
		sopt.NewSolver = srv.trace.newSolver
	}
	sopt.OnSchedule = func(worker int, _ *serve.Query, p *retrieval.Problem, s *retrieval.Schedule) {
		srv.check.observe(worker, p, s)
		if srv.trace != nil && srv.trace.on.Load() {
			srv.trace.observe(worker, s)
		}
	}
	srv.h, err = httpd.New(inst.System, inst.Alloc, httpd.Options{Serve: sopt, Seed: cellSeed})
	if err != nil {
		return nil, 0, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, errors.Join(err, srv.h.Shutdown(context.Background()))
	}
	srv.addr = ln.Addr().String()
	srv.hs = &http.Server{Handler: srv.h}
	srv.served = make(chan error, 1)
	go func() { srv.served <- srv.hs.Serve(ln) }()
	if got := srv.h.FaultServer().Workers(); got != shards {
		return srv, 0, 0, fmt.Errorf("server has %d shards, want %d", got, shards)
	}

	c := newClient(srv.addr, b.w.path(), senders(), b.clock)
	defer c.close()
	warm := make([]request, len(b.in.warmup))
	for i, body := range b.in.warmup {
		warm[i] = request{body: body, n: b.w.batch}
	}
	recs := c.openLoop(warm, senders(), time.Since(b.clock))
	if ct := tally(recs); ct.failed > 0 {
		return srv, 0, 0, fmt.Errorf("warm-up: %d of %d queries failed", ct.failed, ct.attempted)
	}
	var backlog time.Duration
	served(recs, func(r *record, i int) {
		backlog = max(backlog, time.Duration(r.answers[i].resp.ResponseTimeUs)*time.Microsecond)
	})
	return srv, processCPU() - cpu0, backlog, nil
}

// samplesPerCheck over-samples workloads with faults: only samples solved
// while every disk was up are checked.
func samplesPerCheck(w workload) int {
	if w.faults {
		return 3
	}
	return 1
}

// stop shuts the server down and waits for every goroutine it started.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{s.hs.Shutdown(ctx), s.h.Shutdown(ctx)}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// senders is the generator's connection and sending-goroutine count.
func senders() int { return runtime.NumCPU() }

// setUp sets up setups times (once when traced), keeps the last server
// and returns it with the median set-up CPU and wall-clock times in
// seconds.
func (b *bench) setUp() (*server, float64, float64, error) {
	n := setups
	if b.traced {
		n = 1
	}
	var cpus, walls []float64
	for i := 0; ; i++ {
		start := time.Now()
		s, cpu, backlog, err := b.setup(b.traced)
		if err != nil {
			if s != nil {
				err = errors.Join(err, s.stop())
			}
			return nil, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		cpus = append(cpus, cpu.Seconds())
		walls = append(walls, time.Since(start).Seconds())
		if i == n-1 {
			// Let the model backlog of warm-up drain: the model clock
			// is the wall clock, so the nominal phase starts from idle
			// disks.
			time.Sleep(min(backlog, 10*time.Second))
			return s, stats.Median(cpus), stats.Median(walls), nil
		}
		if err := s.stop(); err != nil {
			return nil, 0, 0, fmt.Errorf("set-up teardown: %w", err)
		}
	}
}

func (b *bench) run() (*output, error) {
	b.clock = time.Now()
	w := b.w
	var err error
	if b.inst, err = w.cell().Build(); err != nil {
		return nil, err
	}
	gen := query.NewGenerator(b.inst.Alloc.Grid, query.Range, w.load)
	b.in = makeInputs(w, gen, b.seed, b.window, 2*w.busy)
	// Sample the open-loop phases evenly.
	planned := int64((len(b.in.nominal) + len(b.in.busy)) * w.batch)
	b.stride = planned / int64(w.samples*samplesPerCheck(w))

	srv, setupS, setupWallS, err := b.setUp()
	if err != nil {
		return nil, err
	}
	ph, err := b.measure(srv)
	if err = errors.Join(err, srv.stop()); err != nil {
		return nil, err
	}

	all := append(append(append([]record(nil), ph.nominal...), ph.busy...), ph.capacity...)
	ct := tally(all)
	served200 := int64(ct.attempted - ct.failed)
	chk := checkSamples(srv.check.taken(), ph.down, w.samples)
	var problems []string
	if ct.unanswered > 0 {
		problems = append(problems, fmt.Sprintf("%d queries unanswered", ct.unanswered))
	}
	if got := ph.after.Served - ph.before.Served; got != served200 {
		problems = append(problems, fmt.Sprintf("server served %d queries, client got %d answers with status 200", got, served200))
	}
	if chk.checked == 0 {
		problems = append(problems, "no schedule was checked against the oracle")
	}
	problems = append(problems, chk.errs...)
	if ph.faultErr != nil {
		problems = append(problems, "fault injection: "+ph.faultErr.Error())
	}

	model := modelOf(ph.nominal, b.inst)
	drift := model.drift()
	lateP99 := pct(lateMs(ph.nominal), 99)
	var perBlock float64 // Σ_j 1/C_j, blocks per µs
	for _, d := range b.inst.System.Disks {
		perBlock += 1 / float64(d.Service)
	}
	out := &output{provenance: map[string]any{
		"workload": w.name, "seed": b.seed, "seconds": b.window.Seconds(), "trace": b.traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpuModel(), "senders": senders(), "cell": w.cell().String(), "cell_seed": cellSeed,
		"nominal_qps": w.nominal, "busy_qps": w.busy, "latency_limit_ms": ms(w.limit),
		"nominal_tail_pct": w.nominalTail, "busy_tail_pct": w.busyTail,
		"storage_bound_qps": perBlock * 1e6 / b.in.meanBuckets, "mean_buckets": b.in.meanBuckets,
		"queries": map[string]int{"nominal": tally(ph.nominal).attempted, "busy": tally(ph.busy).attempted, "capacity": tally(ph.capacity).attempted},
		"checked": chk.checked, "optimal": chk.optimal, "fault_intervals": len(ph.down),
		"nominal_drift": drift, "nominal_late_p99_ms": lateP99, "host_steal_share": ph.steal,
		"capacity_cpu_us_per_query": cpuPerQuery(ph.cpu[2], ph.capacity), "setup_wall_s": setupWallS,
	}}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d queries, %d failed, %d schedules checked, %d optimal; nominal drift %+.3f, late p99 %.3f ms\n",
		w.name, b.seed, ct.attempted, ct.failed, chk.checked, chk.optimal, drift, lateP99)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: INCORRECT: %s\n", p)
	}

	// The stationarity guard: a run that overloaded the modelled storage
	// or whose generator fell behind measured something else, so it is
	// refused rather than reported.
	nomLat, busyLat := latenciesMs(ph.nominal), latenciesMs(ph.busy)
	switch {
	case len(nomLat) == 0 || len(busyLat) == 0:
		out.invalid = fmt.Errorf("invalid run: a phase served no queries")
	case drift > driftBound:
		out.invalid = fmt.Errorf("invalid run: the nominal phase's model waits grew by %.1f%% of its mean model response (bound %.0f%%): the nominal rate is above model capacity",
			100*drift, 100*driftBound)
	case lateP99 > ms(w.limit):
		out.invalid = fmt.Errorf("invalid run: the generator ran %.1f ms behind schedule at p99 in the nominal phase (limit %.0f ms)", lateP99, ms(w.limit))
	}
	if out.invalid != nil {
		return out, nil
	}

	out.result = result{Correct: len(problems) == 0, Attempted: ct.attempted, Failed: ct.failed}
	if b.traced {
		probe, err := b.overheadProbe()
		if err != nil {
			return nil, fmt.Errorf("trace overhead probe: %w", err)
		}
		out.result.Metrics, err = b.perLayer(srv, ph, chk, probe)
		return out, err
	}
	// Wall-clock latency and goodput follow the host's stolen time, which
	// on a shared host swings from run to run by more than any bound a
	// regression gate may use; they are recorded, not gated. The gated
	// costs are process CPU time, which leaves stolen time out. The
	// capacity phase's cost is recorded only: its spread over ten seeds
	// reached 0.19 of its median (see README.md).
	nomP := stats.Percentiles(nomLat, 50, w.nominalTail)
	busyP := stats.Percentiles(busyLat, 50, w.busyTail)
	out.provenance["wall"] = map[string]float64{
		"nominal_p50_ms": nomP[0], "nominal_tail_ms": nomP[1],
		"busy_p50_ms": busyP[0], "busy_tail_ms": busyP[1],
		"goodput_qps": goodput(ph.capacity, w.limit, ph.capacityDur),
	}
	m := newMetricSet(endToEndUnits)
	m.put("setup_s", setupS)
	m.put("nominal.cpu_us_per_query", cpuPerQuery(ph.cpu[0], ph.nominal))
	m.put("busy.cpu_us_per_query", cpuPerQuery(ph.cpu[1], ph.busy))
	m.put("answered_share", share(served200, int64(ct.attempted)))
	m.put("model_response_ms", stats.Mean(model.resp))
	m.put("optimal_share", share(int64(chk.optimal), int64(chk.checked)))
	out.result.Metrics, err = m.done()
	return out, err
}

// phaseRecords is what one measured window produced.
type phaseRecords struct {
	nominal, busy, capacity []record
	capacityDur             time.Duration
	before, after           httpd.Stats
	down                    []interval
	faultErr                error
	queueDepth              float64          // mean summed shard queue depth (traced runs)
	steal                   float64          // share of the host's CPU time given to other guests
	cpu                     [3]time.Duration // process CPU time of the nominal, busy and capacity phases
}

// measure runs the three phases against srv: nominal and busy open loop
// on their schedules, then capacity closed loop. Workloads with faults
// replay their fault schedule over the busy and capacity phases; the
// nominal phase stays healthy, so its model response and the
// stationarity guard measure the storage model, not the fault schedule.
func (b *bench) measure(srv *server) (phaseRecords, error) {
	var ph phaseRecords
	nom, busy, _ := phases(b.window)
	fs := srv.h.FaultServer()
	ph.before = srv.h.Stats()
	steal0, total0 := hostSteal()
	t0 := time.Since(b.clock)
	end := t0 + b.window

	var f *faulter
	faultsDone := make(chan struct{})
	if b.w.faults {
		sched, err := fault.Spec{
			NumDisks:      ph.before.Disks,
			Horizon:       cost.Micros((b.window - nom) / time.Microsecond),
			Seed:          cellSeed,
			MTBF:          cost.Micros(faultMTBF / time.Microsecond),
			MTTR:          cost.Micros(faultMTTR / time.Microsecond),
			MaxConcurrent: 1,
		}.Generate()
		if err != nil {
			return ph, err
		}
		f = &faulter{fs: fs, sched: sched, clock: b.clock}
		go func() {
			defer close(faultsDone)
			f.run(t0+nom, end)
		}()
	} else {
		close(faultsDone)
	}
	stopDepth := make(chan struct{})
	depthDone := make(chan float64, 1)
	if b.traced {
		srv.trace.on.Store(true)
		go func() { depthDone <- sampleDepth(fs, stopDepth) }()
	} else {
		depthDone <- 0
	}

	c := newClient(srv.addr, b.w.path(), senders(), b.clock)
	defer c.close()
	cpu0 := processCPU()
	ph.nominal = c.openLoop(b.in.nominal, senders(), t0)
	cpu1 := processCPU()
	ph.busy = c.openLoop(b.in.busy, senders(), t0+nom)
	capStart := max(t0+nom+busy, time.Since(b.clock))
	ph.capacityDur = max(end-capStart, time.Millisecond)
	cpu2 := processCPU()
	ph.capacity = c.closedLoop(b.in.closed, b.w.batch, senders(), capStart, ph.capacityDur)
	ph.cpu = [3]time.Duration{cpu1 - cpu0, cpu2 - cpu1, processCPU() - cpu2}

	<-faultsDone
	close(stopDepth)
	ph.queueDepth = <-depthDone
	if b.traced {
		srv.trace.on.Store(false)
	}
	if f != nil {
		ph.down, ph.faultErr = f.down, f.err
	}
	ph.after = srv.h.Stats()
	steal1, total1 := hostSteal()
	ph.steal = share(steal1-steal0, total1-total0)
	return ph, nil
}

// hostSteal reads, in clock ticks since boot, the CPU time a hypervisor
// gave to other guests and the total CPU time, from the first line of
// /proc/stat. Both are zero where that file is missing. A run with much
// stolen time measured its neighbours as much as the program.
func hostSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// processCPU is the CPU time, user and system, the process has used so
// far. Unlike wall-clock time it leaves out the time the hypervisor gave
// to other guests and the time a thread waited for a CPU; it still moves
// with how fast the host runs the code.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleDepth samples the summed shard queue depth every millisecond
// until stop is closed and returns the mean.
func sampleDepth(fs *serve.Server, stop <-chan struct{}) float64 {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	var buf []int
	var sum, n int64
	for {
		select {
		case <-stop:
			return share(sum, n)
		case <-t.C:
			buf = fs.QueueDepths(buf)
			for _, d := range buf {
				sum += int64(d)
			}
			n++
		}
	}
}

// cpuModel reads the processor name for the provenance record.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// overheadProbe measures what tracing costs: closed-loop goodput of a
// fresh traced server against a fresh untraced one, in alternating
// slices, with no faults. It returns the traced goodput's shortfall in
// percent of the untraced goodput.
func (b *bench) overheadProbe() (pctLoss float64, err error) {
	var srvs [2]*server // untraced, traced
	defer func() {
		for _, s := range srvs {
			if s != nil {
				err = errors.Join(err, s.stop())
			}
		}
	}()
	for k := range srvs {
		s, _, _, err := b.setup(k == 1)
		srvs[k] = s
		if err != nil {
			return 0, err
		}
		if s.trace != nil {
			s.trace.on.Store(true)
		}
	}
	var qps [2][]float64
	slice := max(b.window/40, 250*time.Millisecond)
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			k := (i + j) % 2 // alternate which side goes first
			c := newClient(srvs[k].addr, b.w.path(), senders(), b.clock)
			recs := c.closedLoop(b.in.closed, b.w.batch, senders(), time.Since(b.clock), slice)
			c.close()
			qps[k] = append(qps[k], goodput(recs, b.w.limit, slice))
		}
	}
	return 100 * (1 - stats.Median(qps[1])/stats.Median(qps[0])), nil
}
