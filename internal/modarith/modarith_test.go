package modarith

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func bigP() *big.Int { return new(big.Int).SetUint64(P) }

func TestReduceFixedPoints(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 0},
		{1, 1},
		{P - 1, P - 1},
		{P, 0},
		{P + 1, 1},
		{2 * P, 0},
		{^uint64(0), Reduce(^uint64(0))},
	}
	for _, c := range cases {
		if got := Reduce(c.in); got != c.want {
			t.Errorf("Reduce(%d) = %d, want %d", c.in, got, c.want)
		}
		if got := Reduce(c.in); got >= P {
			t.Errorf("Reduce(%d) = %d out of range", c.in, got)
		}
	}
}

func TestReduceMatchesBig(t *testing.T) {
	f := func(x uint64) bool {
		want := new(big.Int).Mod(new(big.Int).SetUint64(x), bigP()).Uint64()
		return Reduce(x) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddMatchesBig(t *testing.T) {
	f := func(a, b uint64) bool {
		a, b = Reduce(a), Reduce(b)
		want := new(big.Int).Add(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, bigP())
		return Add(a, b) == want.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubNegIdentities(t *testing.T) {
	f := func(a, b uint64) bool {
		a, b = Reduce(a), Reduce(b)
		if Add(Sub(a, b), b) != a {
			return false
		}
		if Add(a, Neg(a)) != 0 {
			return false
		}
		return Sub(a, b) == Add(a, Neg(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulMatchesBig(t *testing.T) {
	f := func(a, b uint64) bool {
		a, b = Reduce(a), Reduce(b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, bigP())
		return Mul(a, b) == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMulEdgeValues(t *testing.T) {
	edge := []uint64{0, 1, 2, P - 2, P - 1, 1 << 60, (1 << 60) + 1}
	for _, a := range edge {
		for _, b := range edge {
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want.Mod(want, bigP())
			if got := Mul(a, b); got != want.Uint64() {
				t.Errorf("Mul(%d,%d) = %d, want %d", a, b, got, want.Uint64())
			}
		}
	}
}

func TestPow(t *testing.T) {
	if got := Pow(2, 61); got != 1 {
		// 2^61 = P + 1 ≡ 1 (mod P)
		t.Errorf("Pow(2,61) = %d, want 1", got)
	}
	if got := Pow(3, 0); got != 1 {
		t.Errorf("Pow(3,0) = %d, want 1", got)
	}
	if got := Pow(0, 5); got != 0 {
		t.Errorf("Pow(0,5) = %d, want 0", got)
	}
	f := func(a uint64, e uint8) bool {
		a = Reduce(a)
		want := new(big.Int).Exp(new(big.Int).SetUint64(a), big.NewInt(int64(e)), bigP())
		return Pow(a, uint64(e)) == want.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInv(t *testing.T) {
	f := func(a uint64) bool {
		a = Reduce(a)
		if a == 0 {
			return true
		}
		return Mul(a, Inv(a)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestPolyEvalKnown(t *testing.T) {
	// 3 + 2x + x^2 at x = 5 -> 3 + 10 + 25 = 38
	if got := PolyEval([]uint64{3, 2, 1}, 5); got != 38 {
		t.Errorf("PolyEval = %d, want 38", got)
	}
	if got := PolyEval(nil, 7); got != 0 {
		t.Errorf("PolyEval(nil) = %d, want 0", got)
	}
	if got := PolyEval([]uint64{42}, 9999); got != 42 {
		t.Errorf("constant PolyEval = %d, want 42", got)
	}
}

func TestPolyEvalMatchesBig(t *testing.T) {
	f := func(c0, c1, c2, c3, x uint64) bool {
		coef := []uint64{c0, c1, c2, c3}
		want := big.NewInt(0)
		xb := new(big.Int).SetUint64(Reduce(x))
		for i := len(coef) - 1; i >= 0; i-- {
			want.Mul(want, xb)
			want.Add(want, new(big.Int).SetUint64(Reduce(coef[i])))
			want.Mod(want, bigP())
		}
		return PolyEval(coef, x) == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// polyEvalBig is Σ coef[i]·x^i mod P in big integers.
func polyEvalBig(coef []uint64, x uint64) uint64 {
	acc := big.NewInt(0)
	xb := new(big.Int).SetUint64(x)
	for i := len(coef) - 1; i >= 0; i-- {
		acc.Mul(acc, xb)
		acc.Add(acc, new(big.Int).SetUint64(coef[i]))
		acc.Mod(acc, bigP())
	}
	return acc.Uint64()
}

// TestPolyEval2MatchesPolyEval: the fused evaluation equals PolyEval, and
// both equal the big-integer value, for degrees 1..6 with every coefficient
// drawn from the lazy fold's edges (P−1, P, P+1, 2^61+7, 2^64−1, 0, random)
// and x at and above P.
func TestPolyEval2MatchesPolyEval(t *testing.T) {
	edges := []uint64{0, 1, P - 1, P, P + 1, 1<<61 + 7, 1<<63 - 1, math.MaxUint64}
	xs := append([]uint64{0, 1, 2, P - 1, P, P + 1, 2 * P, 1<<61 + 7, math.MaxUint64 - 1, math.MaxUint64}, edges...)
	r := rand.New(rand.NewSource(8))
	pick := func() uint64 {
		if r.Intn(3) == 0 {
			return r.Uint64()
		}
		return edges[r.Intn(len(edges))]
	}
	for d := 1; d <= 6; d++ {
		for trial := 0; trial < 300; trial++ {
			a, b := make([]uint64, d), make([]uint64, d)
			for i := range a {
				a[i], b[i] = pick(), pick()
			}
			if trial == 0 { // the largest accumulator every step
				for i := range a {
					a[i], b[i] = math.MaxUint64, P-1
				}
			}
			for _, x := range append(xs, r.Uint64()) {
				ga, gb := PolyEval2(a, b, x)
				wa, wb := PolyEval(a, x), PolyEval(b, x)
				if ga != wa || gb != wb {
					t.Fatalf("PolyEval2(%#x, %#x, %#x) = (%d, %d), PolyEval (%d, %d)", a, b, x, ga, gb, wa, wb)
				}
				if exact := polyEvalBig(a, x); wa != exact {
					t.Fatalf("PolyEval(%#x, %#x) = %d, want %d", a, x, wa, exact)
				}
			}
		}
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := uint64(0x1234567890abcde), uint64(0x0fedcba987654321)&P
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = Mul(x, sink^y)
	}
	_ = sink
}

func BenchmarkPolyEval4(b *testing.B) {
	coef := []uint64{12345, 67890, 13579, 24680}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = PolyEval(coef, sink|1)
	}
	_ = sink
}

// BenchmarkPolyEval2D4 evaluates a degree-4 pair at one point and reduces
// the values to two ranges, as the dictionary's query does with f and g.
func BenchmarkPolyEval2D4(b *testing.B) {
	f := []uint64{0x1234567890abcde, 0x0fedcba98765432, 0x13579bdf2468ace, 0x1ff0ee1dd2cc3bb}
	g := []uint64{0x0abcdef12345678, 0x1a2b3c4d5e6f708, 0x0123456789abcde, 0x1edcba987654321}
	for i := 0; i < b.N; i++ {
		gv, fv := PolyEval2(g, f, polyEval2Sink|uint64(i))
		polyEval2Sink += gv%10007 + fv%1000003
	}
}

var polyEval2Sink uint64
