package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"imflow/internal/cost"
	"imflow/internal/experiment"
	"imflow/internal/maxflow"
	"imflow/internal/query"
	"imflow/internal/serve"
	"imflow/internal/sim"
	"imflow/internal/stats"
	"imflow/internal/storage"
)

// FaultOptions configures the fault-injection benchmark behind
// cmd/imflow-serve-bench -fault.
type FaultOptions struct {
	Ns         []int  `json:"ns"`          // grid sizes to sweep (N x N per site)
	Queries    int    `json:"queries"`     // problems / stream length per cell
	Seed       uint64 `json:"seed"`        // workload seed
	Workers    int    `json:"workers"`     // server worker count for degraded serving
	QueueDepth int    `json:"queue_depth"` // per-shard admission queue bound
	Batch      int    `json:"batch"`       // max queries coalesced per worker wakeup
	MaxFailed  int    `json:"max_failed"`  // degraded sweep covers 0..MaxFailed failed disks
	ExpNum     int    `json:"exp_num"`     // Table IV experiment (default 2)
	MeanGapMs  int    `json:"mean_gap_ms"` // Poisson arrival mean gap (virtual clock)
}

// withDefaults fills zero fields with the paper-scale defaults.
func (o FaultOptions) withDefaults() FaultOptions {
	if len(o.Ns) == 0 {
		o.Ns = []int{20, 60}
	}
	if o.Queries <= 0 {
		o.Queries = 300
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Batch <= 0 {
		o.Batch = 16
	}
	if o.MaxFailed <= 0 {
		o.MaxFailed = 2
	}
	if o.ExpNum == 0 {
		o.ExpNum = 2
	}
	if o.MeanGapMs <= 0 {
		o.MeanGapMs = 2
	}
	return o
}

// SmokeFaultOptions returns the small configuration the CI smoke job runs.
func SmokeFaultOptions() FaultOptions {
	return FaultOptions{Ns: []int{10}, Queries: 120, Workers: 2}.withDefaults()
}

// FaultRecord is one fault-injection measurement: server throughput with
// FailedDisks of 0..MaxFailed disks failed.
type FaultRecord struct {
	Cell        string `json:"cell"`
	N           int    `json:"n"`
	Mode        string `json:"mode"` // "serve-degraded"
	Solver      string `json:"solver"`
	FailedDisks int    `json:"failed_disks"`
	Queries     int    `json:"queries"`
	Workers     int    `json:"workers,omitempty"`

	// Saturation throughput and decision-latency percentiles with the
	// failed disks masked, plus the degradation counters the server
	// accumulated.
	ElapsedNs    int64   `json:"elapsed_ns,omitempty"`
	QPS          float64 `json:"queries_per_sec,omitempty"`
	P50LatencyUs float64 `json:"p50_latency_us,omitempty"`
	P99LatencyUs float64 `json:"p99_latency_us,omitempty"`
	QPSvsHealthy float64 `json:"qps_vs_healthy,omitempty"`

	DegradedQueries int64 `json:"degraded_queries"`
	DroppedBuckets  int64 `json:"dropped_buckets"`
}

// FaultReport is the BENCH_fault.json document.
type FaultReport struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs,omitempty"`
	Audit      bool          `json:"audit_build"`
	Options    FaultOptions  `json:"options"`
	Records    []FaultRecord `json:"records"`
}

// RunFault executes the fault-injection suite: per cell, degraded serving
// throughput at 0..MaxFailed failed disks.
func RunFault(o FaultOptions) (*FaultReport, error) {
	o = o.withDefaults()
	report := &FaultReport{
		Schema:     "imflow/bench-fault/v1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Audit:      maxflow.AuditEnabled,
		Options:    o,
	}
	for _, n := range o.Ns {
		cfg := experiment.Config{
			ExpNum:  o.ExpNum,
			Alloc:   experiment.RDA,
			Type:    query.Range,
			Load:    query.Load2,
			N:       n,
			Queries: o.Queries,
			Seed:    o.Seed + uint64(n)*1000003,
		}
		inst, err := cfg.Build()
		if err != nil {
			return nil, err
		}
		spec := sim.StreamSpec{
			System:   inst.System,
			Alloc:    inst.Alloc,
			Type:     query.Range,
			Load:     query.Load2,
			Arrivals: sim.PoissonArrivals{Mean: cost.FromMillis(float64(o.MeanGapMs))},
			Queries:  o.Queries,
			Seed:     cfg.Seed,
		}
		stream, err := spec.Generate()
		if err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", cfg, err)
		}
		healthyQPS := 0.0
		for k := 0; k <= o.MaxFailed; k++ {
			rec, err := measureServeDegraded(inst.System, stream, k, o)
			if err != nil {
				return nil, fmt.Errorf("bench: cell %s: %d failed: %w", cfg, k, err)
			}
			rec.Cell, rec.N = cfg.String(), n
			if k == 0 {
				healthyQPS = rec.QPS
			}
			if healthyQPS > 0 {
				rec.QPSvsHealthy = rec.QPS / healthyQPS
			}
			report.Records = append(report.Records, rec)
		}
	}
	return report, nil
}

// measureServeDegraded times one saturation pass of the concurrent server
// with the first `failed` disks down before admission starts.
func measureServeDegraded(sys *storage.System, stream []sim.Query, failed int, o FaultOptions) (FaultRecord, error) {
	rec := FaultRecord{
		Mode: "serve-degraded", Solver: "pr-binary",
		FailedDisks: failed, Queries: len(stream), Workers: o.Workers,
	}
	qs := toServeStream(stream)
	srv, err := serve.New(sys, len(qs), serve.Options{
		Workers: o.Workers, QueueDepth: o.QueueDepth, Batch: o.Batch,
	})
	if err != nil {
		return rec, err
	}
	for d := 0; d < failed; d++ {
		if err := srv.FailDisk(d); err != nil {
			return rec, err
		}
	}
	start := time.Now()
	srv.Start(context.Background())
	for _, q := range qs {
		if err := srv.Submit(context.Background(), q); err != nil {
			return rec, err
		}
	}
	results, err := srv.Wait()
	elapsed := time.Since(start)
	if err != nil {
		return rec, err
	}
	latencies := make([]float64, len(results))
	for i, r := range results {
		latencies[i] = float64(r.Latency.Microseconds())
	}
	rec.ElapsedNs = elapsed.Nanoseconds()
	if elapsed > 0 {
		rec.QPS = float64(rec.Queries) / elapsed.Seconds()
	}
	if len(latencies) > 0 {
		pcts := stats.Percentiles(latencies, 50, 99)
		rec.P50LatencyUs = pcts[0]
		rec.P99LatencyUs = pcts[1]
	}
	fs := srv.FaultStats()
	rec.DegradedQueries = fs.DegradedQueries
	rec.DroppedBuckets = fs.DroppedBuckets
	return rec, nil
}

// DiffFault compares a fresh BENCH_fault.json against the committed
// baseline. Records are matched on (cell, mode, failed disks, workers);
// entries present in only one document are informational. Machine-
// independent gate (always on): a degraded pass with failed disks must
// count every query as degraded. Timing gate (disabled by -allocs-only):
// degraded throughput within MaxRatio of the baseline, skipped with a
// note when the committed entry carries no usable timing.
func DiffFault(old, fresh *FaultReport, o DiffOptions) (violations, infos []string) {
	o = o.withDefaults()
	baseline := make(map[string]FaultRecord, len(old.Records))
	matched := make(map[string]bool, len(old.Records))
	key := func(r FaultRecord) string {
		return fmt.Sprintf("%s|%s|%d|%d", r.Cell, r.Mode, r.FailedDisks, r.Workers)
	}
	for _, r := range old.Records {
		baseline[key(r)] = r
		matched[key(r)] = false
	}
	for _, r := range fresh.Records {
		if r.FailedDisks > 0 && r.DegradedQueries != int64(r.Queries) {
			violations = append(violations, fmt.Sprintf("%s serve-degraded failed=%d: %d/%d queries counted degraded",
				r.Cell, r.FailedDisks, r.DegradedQueries, r.Queries))
		}
		base, ok := baseline[key(r)]
		if !ok {
			infos = append(infos, fmt.Sprintf("fault: fresh entry %q has no committed baseline", key(r)))
			continue
		}
		matched[key(r)] = true
		if !o.TimingChecks {
			continue
		}
		if base.QPS <= 0 {
			infos = append(infos, fmt.Sprintf("fault: committed entry %q has no throughput; timing gate skipped", key(r)))
		} else if r.QPS < base.QPS/o.MaxRatio {
			violations = append(violations, fmt.Sprintf("%s serve-degraded failed=%d: %.0f queries/sec, committed %.0f (> %.2fx slower)",
				r.Cell, r.FailedDisks, r.QPS, base.QPS, o.MaxRatio))
		}
	}
	return violations, append(infos, unmatchedBaselines("fault", matched)...)
}
