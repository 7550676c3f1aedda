package onepass

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"oms/internal/core"
)

// TestPropertyFennelScoreMonotonicity: with gain fixed, a heavier block
// never scores higher (the additive penalty is non-decreasing in load);
// with load fixed, more gain always scores higher.
func TestPropertyFennelScoreMonotonicity(t *testing.T) {
	f := func(gainRaw uint16, loadRaw, capRaw uint32, alphaRaw uint16) bool {
		gain := float64(gainRaw)
		capacity := int64(capRaw%100000) + 10
		load := int64(loadRaw) % capacity
		alpha := float64(alphaRaw)/100 + 0.01
		s1, ok1 := core.FennelScore(gain, load, 1, capacity, alpha)
		if !ok1 {
			return true // infeasible: nothing to compare
		}
		if load+1 <= capacity-1 {
			s2, ok2 := core.FennelScore(gain, load+1, 1, capacity, alpha)
			if ok2 && s2 > s1+1e-9 {
				t.Logf("heavier block scored higher: %v -> %v", s1, s2)
				return false
			}
		}
		s3, ok3 := core.FennelScore(gain+1, load, 1, capacity, alpha)
		if !ok3 || s3 <= s1 {
			t.Logf("more gain did not raise score: %v -> %v", s1, s3)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLDGScoreBounds: LDG scores lie in [0, gain] and hit the
// endpoints exactly at empty/full blocks.
func TestPropertyLDGScoreBounds(t *testing.T) {
	f := func(gainRaw uint16, loadRaw, capRaw uint32) bool {
		gain := float64(gainRaw)
		capacity := int64(capRaw%100000) + 10
		load := int64(loadRaw) % capacity
		s, ok := core.LDGScore(gain, load, 1, capacity)
		if !ok {
			return load+1 > capacity
		}
		if s < -1e-9 || s > gain+1e-9 {
			t.Logf("LDG score %v outside [0, %v]", s, gain)
			return false
		}
		if load == 0 && math.Abs(s-gain) > 1e-9 {
			t.Logf("empty block should score full gain: %v != %v", s, gain)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFeasibilityIsCapExact: both scorers accept exactly the
// moves that keep load+w <= capacity.
func TestPropertyFeasibilityIsCapExact(t *testing.T) {
	f := func(loadRaw, wRaw, capRaw uint16) bool {
		capacity := int64(capRaw) + 1
		load := int64(loadRaw)
		w := int64(wRaw) + 1
		_, okF := core.FennelScore(1, load, w, capacity, 0.5)
		_, okL := core.LDGScore(1, load, w, capacity)
		want := load+w <= capacity
		return okF == want && okL == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAlphaScaling: alpha = sqrt(k) m / n^1.5 scales exactly
// with sqrt(k) and linearly with m.
func TestPropertyAlphaScaling(t *testing.T) {
	f := func(kRaw uint8, mRaw uint16, nRaw uint16) bool {
		k := int32(kRaw%100) + 2
		m := int64(mRaw) + 1
		n := int32(nRaw) + 2
		a := core.Alpha(k, m, n)
		a4 := core.Alpha(4*k, m, n)
		if math.Abs(a4-2*a) > 1e-9*a {
			t.Logf("alpha(4k) %v != 2*alpha(k) %v", a4, 2*a)
			return false
		}
		a2m := core.Alpha(k, 2*m, n)
		if math.Abs(a2m-2*a) > 1e-9*a {
			t.Logf("alpha(2m) %v != 2*alpha %v", a2m, 2*a)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLmaxBounds: Lmax is at least the average block weight and
// at most one unit above (1+eps) times it.
func TestPropertyLmaxBounds(t *testing.T) {
	f := func(totalRaw uint32, kRaw uint16) bool {
		total := int64(totalRaw%10000000) + 1
		k := int32(kRaw%1000) + 1
		lmax := core.Lmax(total, k, 0.03)
		avg := float64(total) / float64(k)
		if float64(lmax) < avg {
			t.Logf("Lmax %d below average %v", lmax, avg)
			return false
		}
		if float64(lmax) > 1.03*avg+1 {
			t.Logf("Lmax %d above (1+eps)avg+1 %v", lmax, 1.03*avg+1)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}
