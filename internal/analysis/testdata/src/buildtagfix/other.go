//go:build ignore

// other.go is never compiled, so its F does not collide with a.go's.

package buildtagfix

func F() int { return 2 }
