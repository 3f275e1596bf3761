package bench

import (
	"encoding/json"
	"testing"
)

// tinyFaultOptions keeps the suite small enough for plain `go test`.
func tinyFaultOptions() FaultOptions {
	return FaultOptions{Ns: []int{8}, Queries: 30, Workers: 2, MaxFailed: 2}
}

func TestRunFaultShape(t *testing.T) {
	report, err := RunFault(tinyFaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Per cell: a serve-degraded record per failed-disk count
	// (0..MaxFailed).
	if len(report.Records) != 3 {
		t.Fatalf("%d records, want 3", len(report.Records))
	}
	for _, r := range report.Records {
		if r.Mode != "serve-degraded" {
			t.Errorf("unknown mode %q", r.Mode)
		}
		if r.QPS <= 0 || r.ElapsedNs <= 0 {
			t.Errorf("serve-degraded failed=%d: non-positive throughput %+v", r.FailedDisks, r)
		}
		if r.FailedDisks == 0 && (r.DegradedQueries != 0 || r.DroppedBuckets != 0) {
			t.Errorf("healthy pass counted degradation: %+v", r)
		}
		if r.FailedDisks > 0 && r.DegradedQueries != int64(r.Queries) {
			t.Errorf("serve-degraded failed=%d: %d/%d queries counted degraded",
				r.FailedDisks, r.DegradedQueries, r.Queries)
		}
		if r.QPSvsHealthy <= 0 {
			t.Errorf("serve-degraded failed=%d: qps_vs_healthy %v", r.FailedDisks, r.QPSvsHealthy)
		}
	}
	if _, err := json.Marshal(report); err != nil {
		t.Fatal(err)
	}

	// The report must diff cleanly against itself, and DiffFault must
	// catch a degraded-counter regression regardless of timing checks.
	if v, infos := DiffFault(report, report, DiffOptions{TimingChecks: true}); len(v) != 0 || len(infos) != 0 {
		t.Fatalf("self-diff not clean: %v %v", v, infos)
	}
	broken := *report
	broken.Records = append([]FaultRecord(nil), report.Records...)
	for i := range broken.Records {
		if broken.Records[i].FailedDisks > 0 {
			broken.Records[i].DegradedQueries = 0
			break
		}
	}
	if v, _ := DiffFault(report, &broken, DiffOptions{}); len(v) == 0 {
		t.Fatal("DiffFault missed a degraded-counter regression")
	}
}

func TestFaultOptionsDefaults(t *testing.T) {
	o := FaultOptions{}.withDefaults()
	if len(o.Ns) == 0 || o.Queries <= 0 || o.Workers <= 0 || o.MaxFailed <= 0 {
		t.Fatalf("defaults incomplete: %+v", o)
	}
	smoke := SmokeFaultOptions()
	if len(smoke.Ns) != 1 || smoke.Ns[0] >= o.Ns[0] {
		t.Fatalf("smoke configuration not smaller than default: %+v", smoke)
	}
}
