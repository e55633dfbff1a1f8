package experiments

// The persistent layer under the Lab's in-memory grid cache: JSON files
// named by GridKey, plus decodeGrid, the one door every externally
// obtained grid — loaded from disk or replicated from a peer — passes
// before it is cached.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
)

// decodeGrid reads a grid from outside the lab and returns it only if it
// decodes, validates (trace.ReadJSON), and is bench's grid over exactly
// space's setting list (gridMatches); otherwise nil, and the caller
// recollects or refuses rather than caching it.
func decodeGrid(r io.Reader, bench string, space *freq.Space) *trace.Grid {
	g, err := trace.ReadJSON(r)
	if err != nil || !gridMatches(g, bench, space) {
		return nil
	}
	return g
}

// gridMatches reports whether g is bench's grid over exactly space's
// setting list.
func gridMatches(g *trace.Grid, bench string, space *freq.Space) bool {
	if g.Benchmark != bench || g.NumSettings() != space.Len() {
		return false
	}
	for k, st := range space.Settings() {
		if g.Settings[k] != st {
			return false
		}
	}
	return true
}

// gridKeyHash fingerprints everything a stored grid depends on: the full
// platform configuration (power model, DRAM device, noise, CPI factor) and
// the exact setting list of the space. Two labs share a disk entry iff the
// hash matches, so a recalibrated platform or a reshaped space can never
// serve stale grids.
func gridKeyHash(cfg sim.Config, space *freq.Space) string {
	h := sha256.New()
	fingerprint(h, reflect.ValueOf(cfg))
	for _, st := range space.Settings() {
		fmt.Fprintf(h, "%v %v\n", st.CPU, st.Mem)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fingerprint writes a canonical deep rendering of v: pointers are
// dereferenced (fmt would print their addresses, which differ between
// otherwise-identical configurations), struct fields — exported or not —
// are walked in declaration order, and map entries are emitted in sorted
// order, so identical configurations always produce identical bytes.
func fingerprint(w io.Writer, v reflect.Value) {
	// Fingerprints only ever target hash.Hash and strings.Builder, neither
	// of which can fail a write; the discard is explicit so the intent is.
	emit := func(s string) { _, _ = io.WriteString(w, s) }
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			emit("nil")
			return
		}
		emit("&")
		fingerprint(w, v.Elem())
	case reflect.Struct:
		fmt.Fprintf(w, "%s{", v.Type().Name())
		for i := 0; i < v.NumField(); i++ {
			fingerprint(w, v.Field(i))
			emit(";")
		}
		emit("}")
	case reflect.Slice, reflect.Array:
		emit("[")
		for i := 0; i < v.Len(); i++ {
			fingerprint(w, v.Index(i))
			emit(";")
		}
		emit("]")
	case reflect.Map:
		entries := make([]string, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			var b strings.Builder
			fingerprint(&b, iter.Key())
			b.WriteString("=>")
			fingerprint(&b, iter.Value())
			entries = append(entries, b.String())
		}
		sort.Strings(entries)
		fmt.Fprintf(w, "map%q", entries)
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(w, "%x", v.Float()) // hex float: exact, locale-free
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(w, "%d", v.Uint())
	case reflect.String:
		fmt.Fprintf(w, "%q", v.String())
	case reflect.Bool:
		fmt.Fprintf(w, "%t", v.Bool())
	default:
		// Channels, funcs, complex numbers: not configuration data. Render
		// the type name so at worst distinct configs collide, never the
		// reverse.
		fmt.Fprintf(w, "<%s>", v.Type())
	}
}

// diskCache is the optional persistent layer under a Lab.
type diskCache struct {
	dir string
}

// path derives the cache filename for one key.
func (d diskCache) path(k GridKey) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			return r
		}
		return '_'
	}, k.Benchmark)
	return filepath.Join(d.dir, fmt.Sprintf("%s-%s-%s.grid.json", safe, k.Space, k.Hash))
}

// load returns k's stored grid, or nil if it is absent or fails
// decodeGrid (then it is simply recollected and rewritten).
func (d diskCache) load(k GridKey, space *freq.Space) *trace.Grid {
	f, err := os.Open(d.path(k))
	if err != nil {
		return nil
	}
	//lint:allow errflow read-only file; a close error after a successful read carries no data loss
	defer f.Close()
	return decodeGrid(f, k.Benchmark, space)
}

// store persists a grid atomically: written to a temp file and renamed
// into place, so a concurrent load never observes partial JSON.
func (d diskCache) store(k GridKey, g *trace.Grid) error {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, ".grid-*.tmp")
	if err != nil {
		return err
	}
	//lint:allow errflow best-effort cleanup; after the rename succeeds the temp file is already gone
	defer os.Remove(tmp.Name())
	if err := g.WriteJSON(tmp); err != nil {
		_ = tmp.Close() // the write error takes precedence
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), d.path(k))
}
