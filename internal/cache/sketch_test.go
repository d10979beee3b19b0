package cache

import "testing"

func TestSketchEstimate(t *testing.T) {
	sk := newSketch(1024)
	h := fnv64a("hot")
	if got := sk.estimate(h); got != 0 {
		t.Fatalf("fresh estimate = %d", got)
	}
	for i := 0; i < 10; i++ {
		sk.add(h)
	}
	if got := sk.estimate(h); got != 10 {
		t.Fatalf("estimate after 10 adds = %d", got)
	}
	// A different key stays near zero (collisions can only inflate,
	// and at this width a single other key should not collide on all
	// rows).
	if got := sk.estimate(fnv64a("cold")); got != 0 {
		t.Fatalf("cold estimate = %d", got)
	}
}

func TestSketchSaturates(t *testing.T) {
	sk := newSketch(1024)
	h := fnv64a("k")
	for i := 0; i < 100; i++ {
		sk.add(h)
	}
	if got := sk.estimate(h); got != counterMax {
		t.Fatalf("saturated estimate = %d, want %d", got, counterMax)
	}
}

func TestSketchHalving(t *testing.T) {
	sk := newSketch(1024)
	h := fnv64a("aging")
	for i := 0; i < 12; i++ {
		sk.add(h)
	}
	sk.halve()
	if got := sk.estimate(h); got != 6 {
		t.Fatalf("estimate after halving = %d, want 6", got)
	}
	sk.reset()
	if got := sk.estimate(h); got != 0 {
		t.Fatalf("estimate after reset = %d", got)
	}
	if sk.additions != 0 {
		t.Fatalf("additions after reset = %d", sk.additions)
	}
}

func TestSketchAutoHalvesAtSamplePeriod(t *testing.T) {
	sk := newSketch(64) // resetAt = max(8*64, 256) = 512
	hot := fnv64a("hot")
	for i := 0; i < 20; i++ {
		sk.add(hot)
	}
	before := sk.estimate(hot)
	// Saturated counters stop counting as additions, so drive the
	// sample period with distinct keys.
	for i := 0; i < sk.resetAt; i++ {
		sk.add(uint64(i) * 0x9e3779b97f4a7c15)
	}
	if got := sk.estimate(hot); got >= before {
		t.Fatalf("estimate %d not decayed from %d after sample period", got, before)
	}
}

func TestSketchMinimumWidth(t *testing.T) {
	sk := newSketch(0)
	if got := sk.mask + 1; got < 64 {
		t.Fatalf("width = %d, want >= 64", got)
	}
	// Still functional at the floor width.
	h := fnv64a("x")
	sk.add(h)
	if sk.estimate(h) < 1 {
		t.Fatal("estimate lost the add")
	}
}
