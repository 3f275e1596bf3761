// Failure-aware retrieval: disk masks and partial (degraded) solves.
//
// A failed disk keeps its slot in the flow network, so arc indices match
// the healthy build, but its sink capacity is pinned at zero. Buckets
// whose every replica is on a failed disk leave the flow target; the solve
// returns a valid partial schedule for the rest and an *InfeasibleError
// naming them. A disk that fails after a solve is absorbed by solving
// again under the grown mask (see DESIGN.md §10).
package retrieval

import (
	"errors"
	"fmt"
)

// ErrInfeasible is the sentinel wrapped by every infeasibility error in
// this package: a query (or part of one) that cannot be routed to any
// disk. Match with errors.Is; the concrete *InfeasibleError carries the
// stranded buckets when they are known.
var ErrInfeasible = errors.New("retrieval: query infeasible")

// InfeasibleError reports a degraded solve that could not retrieve every
// bucket: Buckets lists, in ascending order, exactly the buckets whose
// every replica is on a failed disk (the min-cut witness of the masked
// network — their source arcs are the only arcs a saturating cut can
// cross). A solver returning *InfeasibleError has still produced a valid
// partial schedule for all other buckets; callers decide whether partial
// retrieval is acceptable.
type InfeasibleError struct {
	Buckets []int // buckets with no live replica, ascending
}

// Error implements error.
func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("retrieval: %d bucket(s) %v have no live replica", len(e.Buckets), e.Buckets)
}

// Unwrap makes errors.Is(err, ErrInfeasible) hold.
func (e *InfeasibleError) Unwrap() error { return ErrInfeasible }

// DiskMask is the set of failed disks of a system, indexed by global disk
// ID. The zero value and nil both mean "every disk healthy". A DiskMask is
// not safe for concurrent mutation; the serving layer snapshots it under
// its shard lock.
type DiskMask struct {
	failed []bool
	count  int
}

// NewDiskMask returns an all-healthy mask over numDisks disks.
func NewDiskMask(numDisks int) *DiskMask {
	m := &DiskMask{}
	m.Reset(numDisks)
	return m
}

// Reset re-dimensions the mask to numDisks disks, all healthy, reusing the
// backing array when large enough.
// Amortized: reallocates only when the disk count grows.
//
//imflow:allocok
func (m *DiskMask) Reset(numDisks int) {
	if cap(m.failed) < numDisks {
		m.failed = make([]bool, numDisks)
	}
	m.failed = m.failed[:numDisks]
	for i := range m.failed {
		m.failed[i] = false
	}
	m.count = 0
}

// MarkFailed marks a disk failed and reports whether its state changed.
// Allocates only on the out-of-range panic path.
//
//imflow:allocok
func (m *DiskMask) MarkFailed(disk int) bool {
	if disk < 0 || disk >= len(m.failed) {
		panic(fmt.Sprintf("retrieval: DiskMask.MarkFailed(%d) outside %d disks", disk, len(m.failed)))
	}
	if m.failed[disk] {
		return false
	}
	m.failed[disk] = true
	m.count++
	return true
}

// Recover marks a disk healthy again and reports whether its state
// changed. A solver picks the recovery up on its next masked solve: the
// mask no longer matches the built network, so that solve rebuilds.
// Allocates only on the out-of-range panic path.
//
//imflow:allocok
func (m *DiskMask) Recover(disk int) bool {
	if disk < 0 || disk >= len(m.failed) {
		panic(fmt.Sprintf("retrieval: DiskMask.Recover(%d) outside %d disks", disk, len(m.failed)))
	}
	if !m.failed[disk] {
		return false
	}
	m.failed[disk] = false
	m.count--
	return true
}

// Failed reports whether a disk is failed. It is nil-safe and treats disks
// outside the mask's range as healthy, so a nil or short mask is simply
// "everything up".
func (m *DiskMask) Failed(disk int) bool {
	return m != nil && disk >= 0 && disk < len(m.failed) && m.failed[disk]
}

// FailedCount returns the number of failed disks (0 for a nil mask).
func (m *DiskMask) FailedCount() int {
	if m == nil {
		return 0
	}
	return m.count
}

// NumDisks returns the number of disks the mask covers.
func (m *DiskMask) NumDisks() int {
	if m == nil {
		return 0
	}
	return len(m.failed)
}

// FailedDisks appends the failed disk IDs, ascending, to dst.
func (m *DiskMask) FailedDisks(dst []int) []int {
	if m == nil {
		return dst
	}
	for d, f := range m.failed {
		if f {
			dst = append(dst, d)
		}
	}
	return dst
}

// CopyFrom makes m an independent copy of other (nil copies to
// all-healthy of size 0).
func (m *DiskMask) CopyFrom(other *DiskMask) {
	if other == nil {
		m.Reset(0)
		return
	}
	m.Reset(len(other.failed))
	copy(m.failed, other.failed)
	m.count = other.count
}

// FailoverSolver is a ReusableSolver that understands disk failures: it
// can solve a problem under a DiskMask (degraded solve with partial
// retrieval). The generalized integrated solvers (FFIncremental,
// PRIncremental, PRBinary) implement it; FFBasic does not (the basic
// problem has no failure model) and the Oracle offers the one-shot
// SolveMasked instead. A disk that fails after a solve is handled by
// solving again under the grown mask.
type FailoverSolver interface {
	ReusableSolver

	// SolveMaskedInto is SolveInto on the masked problem: failed disks
	// carry no flow, and buckets whose every replica is failed are dropped
	// from the flow target. When buckets are dropped the returned error is
	// an *InfeasibleError naming them and res still holds the valid
	// partial schedule (dropped buckets read -1). A nil mask is a normal
	// solve.
	SolveMaskedInto(p *Problem, mask *DiskMask, res *Result) error
}

// maskFromSlots materializes the network's current slot mask as a
// DiskMask over global disk IDs, reusing m's backing array. Used by
// PRBinary.MarkFailed.
func (net *network) maskFromSlots(m *DiskMask) *DiskMask {
	m.Reset(len(net.prob.Disks))
	for k, failed := range net.maskedSlot[:len(net.diskIDs)] {
		if failed {
			m.MarkFailed(net.diskIDs[k])
		}
	}
	return m
}

// finishDegraded extracts the (possibly partial) schedule of the current
// flow into res and returns nil for a full retrieval or an
// *InfeasibleError naming the dead buckets for a partial one.
// The degraded exit allocates its partial-schedule report; partial
// retrieval is off the steady-state path.
//
//imflow:allocok
func (net *network) finishDegraded(res *Result) error {
	if res.Schedule == nil {
		res.Schedule = &Schedule{}
	}
	if err := net.extractScheduleInto(net.prob, res.Schedule); err != nil {
		return err
	}
	// The solve completed cleanly, so the network (and its flow) may seed
	// the next solve's warm start. A partial retrieval still qualifies:
	// the flow is a valid maximal flow of the masked network, and the warm
	// signature includes the mask.
	net.warmOK = true
	if len(net.dead) == 0 {
		return nil
	}
	return &InfeasibleError{Buckets: append([]int(nil), net.dead...)}
}

// SolveMaskedInto implements FailoverSolver.
func (s *FFIncremental) SolveMaskedInto(p *Problem, mask *DiskMask, res *Result) error {
	return s.solveMasked(p, mask, res)
}

// SolveMaskedInto implements FailoverSolver.
func (s *PRIncremental) SolveMaskedInto(p *Problem, mask *DiskMask, res *Result) error {
	return s.solveMasked(p, mask, res)
}

// SolveMaskedInto implements FailoverSolver.
func (s *PRBinary) SolveMaskedInto(p *Problem, mask *DiskMask, res *Result) error {
	return s.solveMasked(p, mask, res)
}

// MarkFailed fails one more disk of the problem last solved by s and
// re-solves it under the mask of the previous solve plus disk. Failing a
// disk that is already failed or holds no replica of the query re-solves
// to the same schedule.
func (s *PRBinary) MarkFailed(disk int, res *Result) error {
	if s.net.prob == nil {
		return errors.New("retrieval: MarkFailed before any solve")
	}
	if disk < 0 || disk >= len(s.net.prob.Disks) {
		return fmt.Errorf("retrieval: MarkFailed(%d) outside the %d-disk system", disk, len(s.net.prob.Disks))
	}
	mask := s.net.maskFromSlots(&s.mask)
	mask.MarkFailed(disk)
	return s.solveMasked(s.net.prob, mask, res)
}
