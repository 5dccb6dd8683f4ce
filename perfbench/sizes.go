package main

import "time"

// sizes fixes every rate and size of the workloads. fullSize is the
// benchmark; tinySize only exercises each workload's oracle in the tests.
type sizes struct {
	users        int // distinct user ids per city
	preloadRows  int // rows per city in the compacted, clustered snapshot (≥ users)
	freshSegs    int // unclustered segments sealed on top of it (tiles)
	freshSegRows int
	nbhdQueries  int // distinct neighbourhood-box queries
	ingestBodies int // distinct 64-row bodies the ingest workload cycles (even)

	mixedSegRows   int           // mixed: rows per sealed segment
	mixedAge       time.Duration // mixed: max age of a partial batch
	mixedRefitRows int           // mixed: live-refresh trigger
	mixedBatchRate float64       // mixed: ingest batches per second
	mixedTileRate  float64       // mixed: tile queries per second

	reportScale  float64 // speedctx all -scale
	reportRounds int     // report: least cold+warm rounds per run
	reportWarm   int     // report: warm runs per cold run
	setups       int     // set-ups per untraced serving run (setup_s is their median)
	slices       int     // slices of an untraced serving window (cpu_ms is their median)
}

var fullSize = sizes{
	users:        20000,
	preloadRows:  25000,
	freshSegs:    3,
	freshSegRows: 2000,
	nbhdQueries:  8,
	ingestBodies: 2048,

	mixedSegRows:   2048,
	mixedAge:       250 * time.Millisecond,
	mixedRefitRows: 4096,
	mixedBatchRate: 25,
	mixedTileRate:  4,

	reportScale:  0.02,
	reportRounds: 2,
	reportWarm:   3,
	setups:       3,
	slices:       5,
}

var tinySize = sizes{
	users:        300,
	preloadRows:  400,
	freshSegs:    2,
	freshSegRows: 100,
	nbhdQueries:  2,
	ingestBodies: 8,

	mixedSegRows:   256,
	mixedAge:       100 * time.Millisecond,
	mixedRefitRows: 512,
	mixedBatchRate: 40,
	mixedTileRate:  40,

	reportScale:  0.02,
	reportRounds: 1,
	reportWarm:   1,
	setups:       1,
	slices:       2,
}

// Latency limits of the mixed workload's two routes, timed from each
// request's due time. A failed request misses its limit.
const (
	mixedIngestLimit = 50 * time.Millisecond
	mixedTileLimit   = 250 * time.Millisecond
	// maxGenLag is how late the open-loop dispatcher may wake at p99
	// before the run is invalid: beyond it the schedule, not the system,
	// set the load.
	maxGenLag = 25 * time.Millisecond
)
