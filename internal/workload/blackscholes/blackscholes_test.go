package blackscholes

import (
	"math"
	"testing"
	"testing/quick"
)

// Reference values computed from the closed-form solution (cross-checked
// against standard option-pricing tables).
func TestKnownPrices(t *testing.T) {
	cases := []struct {
		o    Option
		want float64
	}{
		// Hull's classic example: S=42, K=40, r=10%, sigma=20%, T=0.5.
		{Option{Call, 42, 40, 0.10, 0.20, 0.5}, 4.7594},
		{Option{Put, 42, 40, 0.10, 0.20, 0.5}, 0.8086},
		// At-the-money, one year.
		{Option{Call, 100, 100, 0.05, 0.25, 1}, 12.3360},
	}
	for _, c := range cases {
		got, err := Price(c.o)
		if err != nil {
			t.Fatalf("%+v: %v", c.o, err)
		}
		if math.Abs(got-c.want) > 5e-4 {
			t.Errorf("Price(%+v) = %.4f, want %.4f", c.o, got, c.want)
		}
	}
}

func TestCNDF(t *testing.T) {
	if got := CNDF(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CNDF(0) = %g, want 0.5", got)
	}
	if got := CNDF(1.96); math.Abs(got-0.9750) > 1e-4 {
		t.Errorf("CNDF(1.96) = %g, want ~0.975", got)
	}
	// Symmetry: Phi(-x) = 1 - Phi(x).
	for _, x := range []float64{0.3, 1.1, 2.7} {
		if d := CNDF(-x) - (1 - CNDF(x)); math.Abs(d) > 1e-12 {
			t.Errorf("CNDF symmetry violated at %g: %g", x, d)
		}
	}
}

func TestPutCallParity(t *testing.T) {
	o := Option{Call, 90, 100, 0.03, 0.4, 2}
	call, err := Price(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Kind = Put
	put, err := Price(o)
	if err != nil {
		t.Fatal(err)
	}
	if resid := Parity(call, put, o); math.Abs(resid) > 1e-10 {
		t.Errorf("parity residual = %g", resid)
	}
}

func TestValidation(t *testing.T) {
	bad := []Option{
		{Call, -1, 100, 0.05, 0.2, 1},
		{Call, 100, 0, 0.05, 0.2, 1},
		{Call, 100, 100, 0.05, -0.2, 1},
		{Call, 100, 100, 0.05, 0.2, 0},
		{Call, math.NaN(), 100, 0.05, 0.2, 1},
		{Call, 100, 100, math.NaN(), 0.2, 1},
	}
	for i, o := range bad {
		if _, err := Price(o); err == nil {
			t.Errorf("case %d (%+v) should fail", i, o)
		}
	}
}

// TestUnknownKindFailsEveryPricer checks that an unknown kind is a
// validation error, so the scalar, serial and parallel pricers all
// report it the same way and none prices it.
func TestUnknownKindFailsEveryPricer(t *testing.T) {
	o := Option{Kind: Kind(7), Spot: 1, Strike: 1, Vol: 0.1, Time: 1}
	const want = "blackscholes: unknown option kind 7"
	if err := o.Validate(); err == nil || err.Error() != want {
		t.Errorf("Validate: %v, want %q", err, want)
	}
	if _, err := Price(o); err == nil || err.Error() != want {
		t.Errorf("Price: %v, want %q", err, want)
	}
	opts := []Option{o}
	if out, err := PriceBatch(opts, nil); err == nil || err.Error() != "option 0: "+want {
		t.Errorf("PriceBatch: %v %v, want %q", out, err, "option 0: "+want)
	}
	if out, err := PriceBatchParallel(opts, 1); err == nil || err.Error() != "option 0: "+want {
		t.Errorf("PriceBatchParallel: %v %v, want %q", out, err, "option 0: "+want)
	}
}

func TestKindString(t *testing.T) {
	if Call.String() != "call" || Put.String() != "put" {
		t.Error("Kind.String mismatch")
	}
}

func TestBatchMatchesScalar(t *testing.T) {
	opts, err := RandomPortfolio(500, 42)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := PriceBatch(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3, 16} {
		par, err := PriceBatchParallel(opts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("workers=%d: mismatch at %d: %g vs %g", workers, i, serial[i], par[i])
			}
		}
	}
}

func TestBatchErrors(t *testing.T) {
	opts := []Option{{Call, 100, 100, 0.05, 0.2, 1}, {Call, -5, 100, 0.05, 0.2, 1}}
	if _, err := PriceBatch(opts, nil); err == nil {
		t.Error("invalid option in batch must fail")
	}
	if _, err := PriceBatchParallel(opts, 2); err == nil {
		t.Error("invalid option in parallel batch must fail")
	}
	if _, err := PriceBatch(opts[:1], make([]float64, 5)); err == nil {
		t.Error("wrong out length must fail")
	}
}

func TestRandomPortfolioDeterministic(t *testing.T) {
	a, err := RandomPortfolio(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RandomPortfolio(10, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("portfolio generation not deterministic")
		}
	}
	c, _ := RandomPortfolio(10, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
	if _, err := RandomPortfolio(0, 1); err == nil {
		t.Error("empty portfolio must fail")
	}
}

// Property: price within no-arbitrage bounds — above intrinsic lower
// bound, call below spot, put below discounted strike.
func TestPropNoArbitrageBounds(t *testing.T) {
	prop := func(seed int64) bool {
		opts, err := RandomPortfolio(50, seed)
		if err != nil {
			return false
		}
		for _, o := range opts {
			p, err := Price(o)
			if err != nil {
				return false
			}
			if p < IntrinsicLowerBound(o)-1e-9 {
				return false
			}
			if o.Kind == Call && p > o.Spot+1e-9 {
				return false
			}
			if o.Kind == Put && p > o.Strike*math.Exp(-o.Rate*o.Time)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: call price is monotone increasing in spot and volatility.
func TestPropMonotonicity(t *testing.T) {
	base := Option{Call, 100, 100, 0.05, 0.3, 1}
	prev := -1.0
	for s := 50.0; s <= 150; s += 5 {
		o := base
		o.Spot = s
		p, err := Price(o)
		if err != nil {
			t.Fatal(err)
		}
		if p < prev {
			t.Fatalf("call price decreased in spot at S=%g", s)
		}
		prev = p
	}
	prev = -1
	for v := 0.05; v <= 1.0; v += 0.05 {
		o := base
		o.Vol = v
		p, err := Price(o)
		if err != nil {
			t.Fatal(err)
		}
		if p < prev {
			t.Fatalf("call price decreased in vol at sigma=%g", v)
		}
		prev = p
	}
}

// Property: parity holds across the whole random portfolio.
func TestPropParityPortfolio(t *testing.T) {
	prop := func(seed int64) bool {
		opts, err := RandomPortfolio(20, seed)
		if err != nil {
			return false
		}
		for _, o := range opts {
			co, po := o, o
			co.Kind, po.Kind = Call, Put
			c, err1 := Price(co)
			p, err2 := Price(po)
			if err1 != nil || err2 != nil {
				return false
			}
			if math.Abs(Parity(c, p, o)) > 1e-8*o.Spot {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPriceSingle(b *testing.B) {
	o := Option{Call, 100, 105, 0.05, 0.25, 0.75}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Price(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPriceBatchParallel(b *testing.B) {
	opts, err := RandomPortfolio(1<<14, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PriceBatchParallel(opts, 0); err != nil {
			b.Fatal(err)
		}
	}
}
