package integration

import (
	"errors"
	"testing"

	"imflow/internal/experiment"
	"imflow/internal/query"
	"imflow/internal/retrieval"
)

// failoverGridSolvers enumerates every FailoverSolver over every engine the
// repository ships, for the paper-grid failover cross-check.
var failoverGridSolvers = []struct {
	name string
	mk   func() retrieval.FailoverSolver
}{
	{"ff-incremental", func() retrieval.FailoverSolver { return retrieval.NewFFIncremental() }},
	{"pr-incremental", func() retrieval.FailoverSolver { return retrieval.NewPRIncremental() }},
	{"pr-binary", func() retrieval.FailoverSolver { return retrieval.NewPRBinary() }},
	{"pr-binary-blackbox", func() retrieval.FailoverSolver { return retrieval.NewPRBinaryBlackBox() }},
	{"pr-binary-highest", func() retrieval.FailoverSolver { return retrieval.NewPRBinaryHighestLabel() }},
	{"pr-binary-parallel", func() retrieval.FailoverSolver { return retrieval.NewPRBinaryParallel(2) }},
}

// gridDeadBuckets recomputes, from the replica lists alone, the buckets a
// mask strands.
func gridDeadBuckets(p *retrieval.Problem, mask *retrieval.DiskMask) []int {
	var dead []int
	for i, reps := range p.Replicas {
		alive := false
		for _, d := range reps {
			if !mask.Failed(d) {
				alive = true
				break
			}
		}
		if !alive {
			dead = append(dead, i)
		}
	}
	return dead
}

// busiestLiveDisk picks the live disk serving the most buckets of the
// schedule — guaranteed to carry flow, so failing it forces a different
// schedule rather than being a no-op.
func busiestLiveDisk(s *retrieval.Schedule, mask *retrieval.DiskMask) int {
	best, bestCount := -1, int64(0)
	for j, c := range s.Counts {
		if c > bestCount && !mask.Failed(j) {
			best, bestCount = j, c
		}
	}
	return best
}

// TestFailoverPaperGridCrossCheck is the acceptance check of the failover
// layer, run over a Table IV evaluation cell (the paper grid): for every
// engine, solving and then failing the 1st and 2nd busiest disks with a
// masked re-solve on the same (reused) solver must reproduce, bit for bit
// in response time, the oracle's masked reference answer. Under the
// imflow_audit build tag every engine run inside these solves
// additionally carries a max-flow = min-cut certificate, so `make audit`
// certifies the degraded flows themselves.
func TestFailoverPaperGridCrossCheck(t *testing.T) {
	queries := 6
	if testing.Short() {
		queries = 2
	}
	cfg := experiment.Config{
		ExpNum:  5,
		Alloc:   experiment.RDA,
		Type:    query.Range,
		Load:    query.Load2,
		N:       6,
		Queries: queries,
		Seed:    77,
	}
	inst, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	oracle := retrieval.NewOracle()
	for qi, p := range inst.Problems {
		for _, fs := range failoverGridSolvers {
			s := fs.mk()
			res := &retrieval.Result{}
			if err := s.SolveInto(p, res); err != nil {
				t.Fatalf("query %d: %s: %v", qi, fs.name, err)
			}
			mask := retrieval.NewDiskMask(len(p.Disks))
			for round := 1; round <= 2; round++ {
				fail := busiestLiveDisk(res.Schedule, mask)
				if fail < 0 {
					break // nothing left serving; all buckets dead
				}
				mask.MarkFailed(fail)
				wantDead := gridDeadBuckets(p, mask)

				ferr := s.SolveMaskedInto(p, mask, res)
				if ferr != nil && !errors.Is(ferr, retrieval.ErrInfeasible) {
					t.Fatalf("query %d: %s: masked solve after failing %d: %v", qi, fs.name, fail, ferr)
				}
				if err := p.ValidatePartialSchedule(res.Schedule, wantDead); err != nil {
					t.Fatalf("query %d: %s: masked schedule after %d failures: %v", qi, fs.name, round, err)
				}
				ores, oerr := oracle.SolveMasked(p, mask)
				if oerr != nil && !errors.Is(oerr, retrieval.ErrInfeasible) {
					t.Fatalf("query %d: oracle masked solve: %v", qi, oerr)
				}
				if (ferr == nil) != (oerr == nil) {
					t.Fatalf("query %d: %s: infeasibility disagreement: solver=%v oracle=%v", qi, fs.name, ferr, oerr)
				}
				if res.Schedule.ResponseTime != ores.Schedule.ResponseTime {
					t.Fatalf("query %d: %s: %d failures: masked solve %v, oracle %v",
						qi, fs.name, round, res.Schedule.ResponseTime, ores.Schedule.ResponseTime)
				}
			}
		}
	}
}
