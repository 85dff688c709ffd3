package fp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// refFromSum rounds hi+lo exactly via big.Float.
func refFromSum(f Format, hi, lo float64, m Mode) uint64 {
	v := new(big.Float).SetPrec(2200).SetFloat64(hi)
	v.Add(v, new(big.Float).SetFloat64(lo))
	return f.FromBig(v, m)
}

func TestFromSumMatchesBigRandom(t *testing.T) {
	formats := []Format{Bfloat16, TensorFloat32, MustFormat(22, 8), MustFormat(24, 8), MustFormat(49, 10)}
	rng := rand.New(rand.NewSource(90))
	for _, f := range formats {
		for trial := 0; trial < 60000; trial++ {
			hi := math.Ldexp(rng.Float64()+0.5, rng.Intn(300)-150)
			if rng.Intn(2) == 0 {
				hi = -hi
			}
			ulp := math.Abs(math.Nextafter(hi, math.Inf(1)) - hi)
			lo := (rng.Float64() - 0.5) * ulp
			if math.Abs(lo) > math.Abs(hi)/4 {
				continue
			}
			for _, m := range AllModes {
				got := f.FromSum(hi, lo, m)
				want := refFromSum(f, hi, lo, m)
				if got != want {
					t.Fatalf("%v FromSum(%x, %x, %v) = %#x want %#x",
						f, hi, lo, m, got, want)
				}
			}
		}
	}
}

// Adversarial structure: hi exactly on format boundaries (representable
// values, midpoints, powers of two) with tiny lo of both signs — the cases
// where the residual decides the rounding.
func TestFromSumBoundaries(t *testing.T) {
	f := MustFormat(20, 8)
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40000; trial++ {
		bitsv := uint64(rng.Int63()) & (f.NumValues() - 1)
		if !f.IsFinite(bitsv) || f.IsZero(bitsv) {
			continue
		}
		v := f.Decode(bitsv)
		var hi float64
		switch trial % 3 {
		case 0:
			hi = v // exactly representable
		case 1: // midpoint to the next value
			nb := f.NextUp(bitsv)
			if !f.IsFinite(nb) {
				continue
			}
			hi = v + (f.Decode(nb)-v)/2
		default: // power of two
			hi = math.Ldexp(1, rng.Intn(200)-100)
			if rng.Intn(2) == 0 {
				hi = -hi
			}
		}
		if hi == 0 || math.IsInf(hi, 0) {
			continue
		}
		mag := math.Abs(hi)
		los := []float64{
			mag * 1e-17, -mag * 1e-17,
			mag * math.Ldexp(1, -40), -mag * math.Ldexp(1, -40),
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			0,
		}
		for _, lo := range los {
			for _, m := range AllModes {
				got := f.FromSum(hi, lo, m)
				want := refFromSum(f, hi, lo, m)
				if got != want {
					t.Fatalf("FromSum(%x, %x, %v) = %#x want %#x", hi, lo, m, got, want)
				}
			}
		}
	}
}

// A lo far above ulp(hi)/2 — an error envelope around a double-double
// value — can carry the sum across a binade edge of hi in either
// direction; the quantum must follow the sum, not hi.
func TestFromSumLoCrossesBinade(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, f := range []Format{TensorFloat32, MustFormat(34, 8), MustFormat(49, 10)} {
		for trial := 0; trial < 20000; trial++ {
			e := rng.Intn(200) - 100
			hi := math.Ldexp(1, e)
			switch trial % 3 {
			case 1:
				hi = math.Nextafter(hi, math.Inf(1))
			case 2:
				hi = math.Nextafter(hi, 0)
			}
			lo := math.Ldexp(rng.Float64()-0.5, e-rng.Intn(60))
			if rng.Intn(2) == 0 {
				hi, lo = -hi, -lo
			}
			if lo == 0 || math.Abs(lo) > math.Abs(hi)/4 {
				continue
			}
			for _, m := range AllModes {
				got := f.FromSum(hi, lo, m)
				if want := refFromSum(f, hi, lo, m); got != want {
					t.Fatalf("%v FromSum(%x, %x, %v) = %#x want %#x", f, hi, lo, m, got, want)
				}
			}
		}
	}
}

// Range edges: overflow, underflow, subnormal results.
func TestFromSumRangeEdges(t *testing.T) {
	f := Bfloat16
	cases := []struct{ hi, lo float64 }{
		{f.MaxFiniteValue(), f.MaxFiniteValue() * 1e-17},
		{f.MaxFiniteValue() * 1.01, -f.MaxFiniteValue() * 1e-16},
		{f.MinSubnormalValue(), -f.MinSubnormalValue() * 1e-18},
		{f.MinSubnormalValue() / 4, f.MinSubnormalValue() * 1e-19},
		{math.Ldexp(1, 300), math.Ldexp(1, 240)},
		{math.Ldexp(1, -300), -math.Ldexp(1, -360)},
		{-math.Ldexp(1.5, 100), math.Ldexp(1, 60)},
	}
	for _, c := range cases {
		for _, m := range AllModes {
			got := f.FromSum(c.hi, c.lo, m)
			want := refFromSum(f, c.hi, c.lo, m)
			if got != want {
				t.Errorf("FromSum(%x, %x, %v) = %#x want %#x", c.hi, c.lo, m, got, want)
			}
		}
	}
	// Degenerate arguments defer to FromFloat64.
	if f.FromSum(0, 0, RoundNearestEven) != f.Zero(false) {
		t.Error("zero hi")
	}
	if f.FromSum(math.Inf(1), 1, RoundNearestEven) != f.Inf(false) {
		t.Error("inf hi")
	}
	if f.FromSum(1.5, 0, RoundNearestEven) != f.FromFloat64(1.5, RoundNearestEven) {
		t.Error("zero lo")
	}
}

func BenchmarkFromSum(b *testing.B) {
	f := MustFormat(49, 10)
	rng := rand.New(rand.NewSource(92))
	his := make([]float64, 1024)
	los := make([]float64, 1024)
	for i := range his {
		his[i] = math.Ldexp(rng.Float64()+0.5, rng.Intn(100)-50)
		los[i] = his[i] * (rng.Float64() - 0.5) * 1e-16
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += f.FromSum(his[i&1023], los[i&1023], RoundNearestEven)
	}
	_ = sink
}
