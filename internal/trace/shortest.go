package trace

// The grid encoder's float kernel: Schubfach (R. Giulietti, "The Schubfach
// way to render doubles", 2020; the algorithm behind OpenJDK's
// Double.toString), specialised to the values encoding/json writes in
// positional form, 1e-6 <= |f| < 1e21, which hold every value of the
// built-in grids. It finds the same decimal as strconv, the shortest that
// reads back as f, the closest such, ties to even, with three products of
// the significand and a 126-bit power of ten, then writes the digits eight
// per 64-bit word straight into the positional layout. The names below
// follow section 9 of the paper and the Java source. strconv.AppendFloat
// stays the oracle: shortest_test.go and FuzzAppendFloat compare the two.

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

const (
	mask63 = 1<<63 - 1
	// asciiZeros is eight '0' bytes; OR-ing it into a word of digit
	// values 0–9 turns them into their ASCII characters.
	asciiZeros = 0x3030303030303030
	// minK and maxK bound the decimal exponents k the kernel's range
	// reaches: floor(log10(2^q)) for the binary exponents q of the floats
	// from 1e-6 (q = -72) below 1e21 (q = 17).
	minK = -22
	maxK = 5
)

// tenPowers holds, for k = minK…maxK, g = floor(10^-k / 2^r) + 1 with r
// the integer that puts g in [2^125, 2^126), split as {g >> 63, g mod 2^63}.
// TestTenPowersTable recomputes every row with math/big.
var tenPowers = [maxK - minK + 1][2]uint64{
	{0x43c33c1937564800, 0x0000000000000001}, // -22
	{0x6c6b935b8bbd4000, 0x0000000000000001}, // -21
	{0x56bc75e2d6310000, 0x0000000000000001}, // -20
	{0x4563918244f40000, 0x0000000000000001}, // -19
	{0x6f05b59d3b200000, 0x0000000000000001}, // -18
	{0x58d15e1762800000, 0x0000000000000001}, // -17
	{0x470de4df82000000, 0x0000000000000001}, // -16
	{0x71afd498d0000000, 0x0000000000000001}, // -15
	{0x5af3107a40000000, 0x0000000000000001}, // -14
	{0x48c2739500000000, 0x0000000000000001}, // -13
	{0x746a528800000000, 0x0000000000000001}, // -12
	{0x5d21dba000000000, 0x0000000000000001}, // -11
	{0x4a817c8000000000, 0x0000000000000001}, // -10
	{0x7735940000000000, 0x0000000000000001}, //  -9
	{0x5f5e100000000000, 0x0000000000000001}, //  -8
	{0x4c4b400000000000, 0x0000000000000001}, //  -7
	{0x7a12000000000000, 0x0000000000000001}, //  -6
	{0x61a8000000000000, 0x0000000000000001}, //  -5
	{0x4e20000000000000, 0x0000000000000001}, //  -4
	{0x7d00000000000000, 0x0000000000000001}, //  -3
	{0x6400000000000000, 0x0000000000000001}, //  -2
	{0x5000000000000000, 0x0000000000000001}, //  -1
	{0x4000000000000000, 0x0000000000000001}, //   0
	{0x6666666666666666, 0x3333333333333334}, //   1
	{0x51eb851eb851eb85, 0x0f5c28f5c28f5c29}, //   2
	{0x4189374bc6a7ef9d, 0x5916872b020c49bb}, //   3
	{0x68db8bac710cb295, 0x74f0d844d013a92b}, //   4
	{0x53e2d6238da3c211, 0x43f3e0370cdc8755}, //   5
}

// flog10pow2 is floor(log10(2^e)), flog10ThreeQuartersPow2 is
// floor(log10(3/4 · 2^e)) and flog2pow10 is floor(log2(10^e)), each exact
// over the exponents the kernel uses (TestFloorLogs).
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// appendShortest appends f, finite with 1e-6 <= |f| < 1e21, as
// strconv.AppendFloat(dst, f, 'f', -1, 64) does. Unlike strconv, it stores
// whole words: it may overwrite any of the maxFloatLen bytes past
// len(dst), also past the end of what it appends, and grows dst first only
// if they are not there (AppendJSON's bound always leaves them).
func appendShortest(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	c := b&(1<<52-1) | 1<<52 // the range holds no subnormals
	q := int(b>>52&0x7ff) - 1075

	// The digits as a 17-digit d, trailing zeros included, with f =
	// 0.d1d2…d17 · 10^dp: a 16-digit d gains a zero, by a multiply
	// rather than a branch, since grid values have 16 digits about as
	// often as 17.
	d, k := schubfach(c, q)
	short := b2u(d < 1e16)
	d *= 1 + 9*short
	dp := 17 + k - int(short)
	// One digit, then two words of eight; sig counts the digits before
	// the trailing zeros.
	hi9 := d / 1e8
	low := digits8(uint32(d - hi9*1e8))
	head := uint32(hi9) / 1e8
	mid := digits8(uint32(hi9) - head*1e8)
	sig := 17 - bits.LeadingZeros64(low)/8
	if low == 0 {
		sig = 9 - bits.LeadingZeros64(mid)/8
	}

	dst = slices.Grow(dst, maxFloatLen)
	start := len(dst)
	out := dst[start : start+maxFloatLen]
	i := 0
	if b>>63 != 0 {
		out[0] = '-'
		i = 1
	}
	switch {
	case dp <= 0:
		// 0.000ddd: at most five zeros follow the point, since |f| >= 1e-6.
		out[i], out[i+1] = '0', '.'
		binary.LittleEndian.PutUint64(out[i+2:], asciiZeros)
		putDigits(out[i+2-dp:], head, mid, low)
		i += 2 - dp + sig
	case dp >= sig:
		// An integer of dp <= 21 digits, zeros past the 17th included.
		putDigits(out[i:], head, mid, low)
		binary.LittleEndian.PutUint32(out[i+17:], asciiZeros>>32)
		i += dp
	default:
		// ddd.ddd: the digits go one byte right, then the integer part
		// moves back over the gap that leaves for the point.
		putDigits(out[i+1:], head, mid, low)
		copy(out[i:i+dp], out[i+1:])
		out[i+dp] = '.'
		i += sig + 1
	}
	return dst[:start+i]
}

// schubfach returns d and k with d·10^k the shortest decimal that reads
// back as c·2^q, the closest such, ties to even. d has 16 or 17 digits,
// trailing zeros included; c has its 53rd bit set, and k must fall in
// tenPowers.
func schubfach(c uint64, q int) (uint64, int) {
	// c·2^q reads back from the interval [vl, vr] around it, or from
	// (vl, vr) when c is odd, since ties round to the even significand.
	// cb, cbl and cbr are v, vl and vr in units of 2^(q-2).
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	cbl := cb - 2
	k := flog10pow2(q)
	if c == 1<<52 {
		// Irregular spacing: the float below is half as far as the one
		// above.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	// vb, vbl and vbr are v, vl and vr in units of 10^k/4, each rounded
	// to odd, so a set low bit records that the product was inexact.
	h := q + flog2pow10(-k) + 2
	g := &tenPowers[k-minK]
	vb := roundOdd(g, cb<<h)
	vbl := roundOdd(g, cbl<<h)
	vbr := roundOdd(g, cbr<<h)

	// s·10^k <= v < (s+1)·10^k, and s has 16 or 17 digits. One digit
	// fewer wins if exactly one multiple of 10^(k+1) next to v, sp or
	// tp, lies in the interval (the interval is narrower than 10^(k+1),
	// so both never do). Otherwise s or t = s+1 wins: the one that reads
	// back if only one does, else the closer, and on a tie the even one.
	// Each test is a 0/1 word and the answer is picked by arithmetic,
	// not branches: grid values take either side of each choice often
	// enough that a branch would mispredict.
	s := vb >> 2
	sp := s / 10 * 10
	tp := sp + 10
	upin := b2u(vbl+out <= sp<<2)
	wpin := b2u(tp<<2+out <= vbr)
	t := s + 1
	uin := b2u(vbl+out <= s<<2)
	win := b2u(t<<2+out <= vbr)
	cmp := int64(vb - (s+t)<<1)
	closer := b2u(cmp < 0) | b2u(cmp == 0)&^s
	pickS := uin&^win | (uin^win^1)&closer
	long := t - pickS       // s or t
	shorter := tp - 10*upin // sp if it reads back, else tp
	fewer := -(upin ^ wpin) // all ones if exactly one of sp, tp reads back
	return long ^ (long^shorter)&fewer, k
}

// b2u is 1 for true and 0 for false, which the compiler reads off the
// flags rather than branching.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// roundOdd returns cp·g / 2^127, truncated, with its low bit set if the
// bits below it in the upper half of the remainder are not all zero; g is
// a tenPowers row. This is the paper's figure 8: the remainder's low 64
// bits never decide the result.
func roundOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	return (y1 + z>>63) | (z&mask63+mask63)>>63
}

// digits8 returns the eight decimal digits of x < 10^8, most significant
// first, one per byte of a little-endian word, as values 0–9. It splits x
// into two halves of four digits, each half into two pairs, and each pair
// into two digits, every split in all lanes at once with a multiply-shift
// in place of the division.
func digits8(x uint32) uint64 {
	v := uint64(x/10000) | uint64(x%10000)<<32
	hi := v * 10486 >> 20 & 0x0000007f_0000007f
	v = hi | (v-hi*100)<<16
	hi = v * 103 >> 10 & 0x000f000f_000f000f
	return hi | (v-hi*10)<<8
}

// putDigits writes the 17 digits head, mid and low as ASCII to b[:17].
func putDigits(b []byte, head uint32, mid, low uint64) {
	b[0] = '0' + byte(head)
	binary.LittleEndian.PutUint64(b[1:], mid|asciiZeros)
	binary.LittleEndian.PutUint64(b[9:], low|asciiZeros)
}
