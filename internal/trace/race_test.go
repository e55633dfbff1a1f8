//go:build race

package trace

// Race-detector builds mark themselves for the tests whose cost or
// allocation counts the detector changes.
func init() { raceEnabled = true }
