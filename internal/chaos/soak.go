package chaos

import "slingshot/internal/par"

// SoakReports runs seeds 1..n where one seed may span many deployments —
// a sharded fleet returns one report per cell — and returns the first
// failing report in (seed, position) order: ascending seed, then the
// run's own report order (cell index for fleets). That is the minimal
// reproducer a developer wants to replay.
//
// Seeds are independent simulations, so they shard across the
// internal/par worker pool; scanning afterwards in ascending order makes
// the outcome identical to the sequential loop. At one worker
// (GOMAXPROCS=1 or par.SetWorkers(1)) the runs execute inline in
// ascending order, exactly like the sequential code. A fleet's own
// internal parallelism nests safely: par batches run inline when the pool
// is already drained by the soak.
func SoakReports(n int, run func(seed uint64) []*Report) (failing *Report, ok bool) {
	batches := par.Map(n, func(i int) []*Report {
		return run(uint64(i) + 1)
	})
	for _, reports := range batches {
		for _, rep := range reports {
			if rep.TotalViolations > 0 {
				return rep, false
			}
		}
	}
	return nil, true
}

// Soak is the single-deployment-per-seed form: seeds 1..n, first failing
// seed's report returned. ok is true when every seed passed.
func Soak(n int, run func(seed uint64) *Report) (failing *Report, ok bool) {
	return SoakReports(n, func(seed uint64) []*Report {
		return []*Report{run(seed)}
	})
}
