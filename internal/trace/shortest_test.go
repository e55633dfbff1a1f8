package trace

// The float kernel's oracles: encoding/json's float encoder on fuzzed bits
// and on the powers of two and ten, where Schubfach's spacing and rounding
// change; strconv's shortest positional form on a million seeded random
// floats; and math/big for the kernel's table of powers of ten and its
// floor-log approximations.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"strconv"
	"testing"

	"mcdvfs/internal/rng"
)

// requireOracleFloat checks appendFloat on f, appending after a prefix,
// against encoding/json's float encoder.
func requireOracleFloat(t *testing.T, f float64) {
	t.Helper()
	const prefix = "x"
	got := appendFloat([]byte(prefix), f)
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("appendFloat(%#x) = %q, encoding/json writes %q", math.Float64bits(f), got[len(prefix):], want)
	}
}

// FuzzAppendFloat holds appendFloat to encoding/json on any finite bits.
// The committed corpus (testdata/fuzz/FuzzAppendFloat) holds in-range
// powers of two, where the float below is half as far as the one above
// (2^64's digits depend on it); both neighbours of 1e-6 and of 1e21, where
// the form switches; 2^53 and its neighbours, where floats stop being 1
// apart; 2^54 + 4 and 2^54 + 8, whose shortest candidate lies on the edge
// of the interval that reads back, outside it for the odd significand and
// inside it for the even one; a value that needs 17 digits; values whose
// shortest form ends in zeros (1e20, 1.23e17); a value halfway between its
// two shortest candidates; ±0, a subnormal and the largest float.
func FuzzAppendFloat(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits uint64) {
		if v := math.Float64frombits(bits); finite(v) {
			requireOracleFloat(t, v)
		}
	})
}

// TestAppendFloatMatchesStrconv checks appendFloat against encoding/json
// on every in-range power of two and of ten and the three floats on each
// side of it, then against strconv on a million seeded random floats of
// both signs from the kernel's range, 1e-6 <= |f| < 1e21.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	if testing.Short() || raceEnabled {
		// One goroutine, so the race detector has nothing to find here.
		t.Skip("formats a million floats")
	}
	var powers []float64
	for e := -20; e <= 70; e++ {
		powers = append(powers, math.Ldexp(1, e))
	}
	for e := -6; e <= 21; e++ {
		p, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		powers = append(powers, p)
	}
	for _, p := range powers {
		below, above := p, p
		for range 3 {
			below = math.Nextafter(below, 0)
			above = math.Nextafter(above, math.Inf(1))
			requireOracleFloat(t, below)
			requireOracleFloat(t, above)
		}
		requireOracleFloat(t, p)
		requireOracleFloat(t, -p)
	}

	r := rng.New(20)
	var got, want []byte
	for n := 0; n < 1_000_000; {
		// A random sign and significand, and a binary exponent from
		// 2^-20 to 2^69, the band that holds the range.
		bits := r.Uint64()&^(0x7ff<<52) | uint64(1003+r.Intn(90))<<52
		f := math.Float64frombits(bits)
		if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
			continue
		}
		n++
		got = appendFloat(got[:0], f)
		want = strconv.AppendFloat(want[:0], f, 'f', -1, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%#x) = %q, strconv writes %q", bits, got, want)
		}
	}
}

// TestTenPowersTable recomputes every row of tenPowers with math/big:
// g = floor(10^-k / 2^r) + 1 with r = floor(log2(10^-k)) - 125, so that
// 2^125 <= g-1 < 2^126, split at bit 63.
func TestTenPowersTable(t *testing.T) {
	one := big.NewInt(1)
	low63 := new(big.Int).Sub(new(big.Int).Lsh(one, 63), one)
	for k := minK; k <= maxK; k++ {
		r := flog2pow10(-k) - 125
		num, den := big.NewInt(1), big.NewInt(1)
		if k <= 0 {
			num.Exp(big.NewInt(10), big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
		}
		if r >= 0 {
			den.Lsh(den, uint(r))
		} else {
			num.Lsh(num, uint(-r))
		}
		g := new(big.Int).Quo(num, den)
		if g.BitLen() != 126 {
			t.Errorf("k=%d: floor(10^-k / 2^%d) has %d bits, want 126", k, r, g.BitLen())
		}
		g.Add(g, one)
		row := tenPowers[k-minK]
		if hi, lo := new(big.Int).Rsh(g, 63), new(big.Int).And(g, low63); hi.Uint64() != row[0] || lo.Uint64() != row[1] || !hi.IsUint64() {
			t.Errorf("k=%d: row {%#x, %#x}, math/big gives {%#x, %#x}", k, row[0], row[1], hi, lo)
		}
	}
}

// TestFloorLogs checks the kernel's fixed-point floor logarithms against
// exact integer comparisons over, and past, the exponents it uses.
func TestFloorLogs(t *testing.T) {
	// pow returns b^e as a rational, e of either sign.
	pow := func(b int64, e int) *big.Rat {
		p := new(big.Int).Exp(big.NewInt(b), big.NewInt(int64(max(e, -e))), nil)
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	// floorLog returns floor(log_b(x)) for x > 0.
	floorLog := func(b int64, x *big.Rat) int {
		n := 0
		for x.Cmp(pow(b, n)) < 0 {
			n--
		}
		for x.Cmp(pow(b, n+1)) >= 0 {
			n++
		}
		return n
	}
	for e := -100; e <= 100; e++ {
		p2 := pow(2, e)
		if got, want := flog10pow2(e), floorLog(10, p2); got != want {
			t.Errorf("flog10pow2(%d) = %d, want %d", e, got, want)
		}
		threeQuarters := new(big.Rat).Mul(p2, big.NewRat(3, 4))
		if got, want := flog10ThreeQuartersPow2(e), floorLog(10, threeQuarters); got != want {
			t.Errorf("flog10ThreeQuartersPow2(%d) = %d, want %d", e, got, want)
		}
		if got, want := flog2pow10(e), floorLog(2, pow(10, e)); got != want {
			t.Errorf("flog2pow10(%d) = %d, want %d", e, got, want)
		}
	}
}
