package retrieval

import "imflow/internal/cost"

// ProblemFromSeed exposes the quick-check problem generator to the
// external test package.
var ProblemFromSeed = problemFromSeed

// CutBound returns the capacity-cut bound the sequential Algorithm 6
// search opens at for p under mask (nil for none): tcut, the summed
// disk->sink capacities one microsecond below it and at it, and the flow
// target. tcut is 0 when the target is.
func CutBound(p *Problem, mask *DiskMask) (tcut cost.Micros, below, at, target int64) {
	net := &network{}
	net.rebuildMasked(p, mask)
	target = net.target()
	if target == 0 {
		return 0, 0, 0, 0
	}
	tcut = net.cutBound(0, net.allReplicasTime(), target)
	return tcut, net.capSum(cost.SatSub(tcut, 1)), net.capSum(tcut), target
}
