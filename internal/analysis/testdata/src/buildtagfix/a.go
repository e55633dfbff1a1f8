// Package buildtagfix declares F twice, once in a file a build constraint
// excludes. The loader must read only the files the go command compiles,
// so the package type-checks and no check fires.
package buildtagfix

// F is the only F a build sees.
func F() int { return 1 }
