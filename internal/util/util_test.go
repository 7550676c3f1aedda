package util

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGZeroValueUsable(t *testing.T) {
	var r RNG
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) != 100 {
		t.Fatalf("zero-value RNG repeated values: %d distinct of 100", len(seen))
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 500; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestInt63nRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Int63n(1 << 40)
		if v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	sum := 0.0
	const trials = 20000
	for i := 0; i < trials; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		sum += f
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	for _, n := range []int{0, 1, 2, 17, 256} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid element %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestShuffleInt32Preserves(t *testing.T) {
	r := NewRNG(5)
	p := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	sum := int32(0)
	r.ShuffleInt32(p)
	for _, v := range p {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle changed multiset, sum=%d", sum)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(123)
	c1 := parent.Fork()
	c2 := parent.Fork()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling forks produced identical first output")
	}
	// Deterministic: same parent seed yields same forks.
	p2 := NewRNG(123)
	d1 := p2.Fork()
	c3 := NewRNG(123).Fork()
	if d1.Uint64() != c3.Uint64() {
		t.Fatal("fork not deterministic for identical parent state")
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	for bit := 0; bit < 64; bit += 7 {
		x := uint64(0x0123456789abcdef)
		d := Mix64(x) ^ Mix64(x^(1<<uint(bit)))
		pop := 0
		for d != 0 {
			pop += int(d & 1)
			d >>= 1
		}
		if pop < 10 || pop > 54 {
			t.Fatalf("weak avalanche for bit %d: %d bits flipped", bit, pop)
		}
	}
}

func TestHashModRangeProperty(t *testing.T) {
	f := func(a, b uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := HashMod(a, b, n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashModUniformity(t *testing.T) {
	const n = 16
	counts := make([]int, n)
	for i := 0; i < 16000; i++ {
		counts[HashMod(uint64(i), 99, n)]++
	}
	for b, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("block %d count %d far from 1000", b, c)
		}
	}
}

func TestHash2Distinct(t *testing.T) {
	if Hash2(1, 2) == Hash2(2, 1) {
		t.Fatal("Hash2 should not be symmetric in its arguments")
	}
}
