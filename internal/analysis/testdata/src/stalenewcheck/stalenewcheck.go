// Package stalenewcheck exercises the staleness scan against a check name
// that only just entered the suite: the waiver below names errflow, the
// waived line gives errflow nothing to absorb, and the driver must call the
// waiver stale the first time the check covers this file — and not before,
// since a check that never covered the file produces no liveness evidence
// either way.
package stalenewcheck

// double drops no error; the waiver is dead weight from the moment the
// check exists.
func double(n int) int {
	return n * 2 //lint:allow errflow speculative waiver with nothing to suppress
}
