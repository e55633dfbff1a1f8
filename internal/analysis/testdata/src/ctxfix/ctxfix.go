// Package ctxfix is a ctx-check fixture: exported entry points that spawn
// goroutines with and without a context.
package ctxfix

import "context"

// Spawn launches a goroutine without a context. want: ctx hit.
func Spawn(done chan struct{}) {
	go func() { close(done) }()
}

// SpawnContext launches a goroutine with a context: clean.
func SpawnContext(ctx context.Context, done chan struct{}) {
	go func() {
		select {
		case <-ctx.Done():
		default:
		}
		close(done)
	}()
}

// WaivedSpawn carries a reasoned waiver: suppressed.
//
//lint:allow ctx fixture demonstrates a reasoned waiver
func WaivedSpawn(done chan struct{}) {
	go func() { close(done) }()
}
