//go:build race

package sim_test

// raceEnabled: under the race detector sync.Pool drops a share of what it
// is handed, so pooled paths allocate there by design.
const raceEnabled = true
