package mmm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m, err := New(rows, cols)
	if err != nil {
		panic(err)
	}
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewRejectsBadDims(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("zero rows must fail")
	}
	if _, err := New(4, -1); err == nil {
		t.Error("negative cols must fail")
	}
}

func TestAtSet(t *testing.T) {
	m, _ := New(3, 4)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Errorf("At(1,2) = %g", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Error("fresh matrix not zeroed")
	}
}

func TestNaiveKnownProduct(t *testing.T) {
	a, _ := New(2, 3)
	b, _ := New(3, 2)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c, err := Naive(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Errorf("C[%d] = %g, want %g", i, c.Data[i], w)
		}
	}
}

func TestIdentityIsNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 17, 17)
	id, _ := Identity(17)
	left, err := Naive(id, a)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Naive(a, id)
	if err != nil {
		t.Fatal(err)
	}
	if !left.Equalish(a, 1e-12) || !right.Equalish(a, 1e-12) {
		t.Error("identity product mismatch")
	}
}

func TestBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, size := range []struct{ m, k, n, block int }{
		{8, 8, 8, 4},
		{33, 17, 29, 8},  // non-divisible blocking
		{64, 64, 64, 16}, // divisible blocking
		{5, 5, 5, 100},   // block larger than matrix
	} {
		a := randomMatrix(rng, size.m, size.k)
		b := randomMatrix(rng, size.k, size.n)
		want, err := Naive(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Parallel(a, b, size.block, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equalish(want, 1e-9) {
			t.Errorf("blocked(%+v) != naive", size)
		}
	}
}

func TestParallelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 61, 47)
	b := randomMatrix(rng, 47, 53)
	want, _ := Naive(a, b)
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Parallel(a, b, 16, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !got.Equalish(want, 1e-9) {
			t.Errorf("parallel(workers=%d) != naive", workers)
		}
	}
}

// oneK is the plain i-k-j triple loop, one k at a time with exact-zero A
// entries skipped: the oracle the unrolled kernels must match bit for
// bit.
func oneK(a, b *Matrix) *Matrix {
	c, err := New(a.Rows, b.Cols)
	if err != nil {
		panic(err)
	}
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.Data[i*a.Cols+k]
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				c.Data[i*c.Cols+j] += av * b.Data[k*b.Cols+j]
			}
		}
	}
	return c
}

// TestVariantsBitIdentical pins that unrolling, blocking and row-band
// parallelism only reorder which (i, j) cells are visited: each cell
// still accumulates k-ascending, so Naive and Parallel at every block
// size and worker count agree bit for bit with the one-k loop, at depths that leave a partial group of four and
// with exact zeros in A (which the loops skip, so a zero times an
// infinite B entry adds no NaN).
func TestVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sh := range []struct {
		m, k, n int
		zeros   bool
	}{
		{1, 1, 1, false}, {7, 7, 7, false}, {130, 130, 130, false}, {192, 192, 192, false},
		{7, 9, 6, false}, {33, 17, 29, false}, {5, 3, 8, false}, {16, 30, 11, false},
		{7, 9, 6, true}, {33, 17, 29, true}, {40, 41, 37, true},
	} {
		a := randomMatrix(rng, sh.m, sh.k)
		b := randomMatrix(rng, sh.k, sh.n)
		if sh.zeros {
			for i := range a.Data {
				if rng.Intn(5) == 0 {
					a.Data[i] = 0
				}
			}
			// A zero A entry's B row holds an infinity: multiplying it
			// in would turn the cell into NaN.
			for i := range a.Data {
				if a.Data[i] == 0 {
					b.Data[(i%sh.k)*sh.n+rng.Intn(sh.n)] = math.Inf(1)
					break
				}
			}
		}
		want := oneK(a, b)
		naive, err := Naive(a, b)
		if err != nil {
			t.Fatal(err)
		}
		same := func(name string, block int, got *Matrix) {
			t.Helper()
			for i, w := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
					t.Fatalf("%dx%dx%d zeros=%v block=%d: %s element %d = %v, one-k loop %v",
						sh.m, sh.k, sh.n, sh.zeros, block, name, i, got.Data[i], w)
				}
			}
		}
		same("naive", 0, naive)
		for _, block := range []int{1, 3, 16, 128, max(sh.m, sh.k, sh.n)} {
			for _, workers := range []int{1, 0, 3} {
				par, err := Parallel(a, b, block, workers)
				if err != nil {
					t.Fatal(err)
				}
				same("parallel", block, par)
			}
		}
	}
}

func TestDimensionMismatch(t *testing.T) {
	a, _ := New(2, 3)
	b, _ := New(4, 2)
	if _, err := Naive(a, b); err == nil {
		t.Error("naive must reject mismatched dims")
	}
	if _, err := Parallel(a, b, 2, 2); err == nil {
		t.Error("parallel must reject mismatched dims")
	}
	if _, err := Naive(nil, b); err == nil {
		t.Error("nil matrix must fail")
	}
}

func TestBadBlockSize(t *testing.T) {
	a, _ := New(4, 4)
	b, _ := New(4, 4)
	if _, err := Parallel(a, b, 0, 1); err == nil {
		t.Error("zero block must fail")
	}
	if _, err := Parallel(a, b, -1, 2); err == nil {
		t.Error("negative block must fail")
	}
}

func TestClone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 5, 5)
	c := a.Clone()
	c.Set(0, 0, 999)
	if a.At(0, 0) == 999 {
		t.Error("Clone shares storage")
	}
}

// Property: (A*B)*C == A*(B*C) — associativity exercised through the
// naive, blocked and parallel kernels.
func TestPropAssociativity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 9, 7)
		b := randomMatrix(rng, 7, 11)
		c := randomMatrix(rng, 11, 5)
		ab, err := Naive(a, b)
		if err != nil {
			return false
		}
		abc1, err := Parallel(ab, c, 4, 1)
		if err != nil {
			return false
		}
		bc, err := Parallel(b, c, 4, 2)
		if err != nil {
			return false
		}
		abc2, err := Naive(a, bc)
		if err != nil {
			return false
		}
		return abc1.Equalish(abc2, 1e-8)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: scaling A scales the product.
func TestPropLinearity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 6, 6)
		b := randomMatrix(rng, 6, 6)
		ab, err := Naive(a, b)
		if err != nil {
			return false
		}
		scaled := a.Clone()
		for i := range scaled.Data {
			scaled.Data[i] *= 3
		}
		sab, err := Naive(scaled, b)
		if err != nil {
			return false
		}
		for i := range ab.Data {
			d := sab.Data[i] - 3*ab.Data[i]
			if d < -1e-9 || d > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBlocked256(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := randomMatrix(rng, 256, 256)
	y := randomMatrix(rng, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parallel(x, y, 64, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallel256(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := randomMatrix(rng, 256, 256)
	y := randomMatrix(rng, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parallel(x, y, 64, 0); err != nil {
			b.Fatal(err)
		}
	}
}
