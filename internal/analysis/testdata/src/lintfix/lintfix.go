// Package lintfix is a fixture for the directive grammar itself: malformed
// //lint:allow comments are diagnosed, never silently honored.
package lintfix

// A directive naming an unknown check. want: lint hit.
//
//lint:allow nosuchcheck this check does not exist

// A directive with no reason. want: lint hit.
//
//lint:allow rangecheck

// A directive with no check name at all. want: lint hit.
//
//lint:allow

// A well-formed waiver with nothing left to suppress: the division it
// excused was fixed without deleting the directive. want: stale lint hit.
//
//lint:allow rangecheck this division was fixed long ago
const Fixed = 1.0

// Value exists so the package has a declaration.
const Value = 1
