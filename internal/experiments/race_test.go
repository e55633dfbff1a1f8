//go:build race

package experiments

// Race-detector builds mark themselves for the tests whose cost the
// detector changes.
func init() { raceEnabled = true }
