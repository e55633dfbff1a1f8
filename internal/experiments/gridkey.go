package experiments

// The fingerprint behind GridKey.Hash.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
)

// gridKeyHash fingerprints the platform half of what a grid depends on:
// the full platform configuration (power model, DRAM device, noise, CPI
// factor) and the exact setting list of the space. Two labs issue the
// same key iff the hash matches, so a recalibrated platform or a reshaped
// space is never routed to, or served, another platform's grid.
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
