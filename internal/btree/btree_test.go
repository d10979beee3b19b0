package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatal("empty Len")
	}
	if tr.Contains(5) {
		t.Fatal("empty Contains")
	}
	if _, ok := tr.Min(); ok {
		t.Fatal("empty Min")
	}
	if _, ok := tr.Max(); ok {
		t.Fatal("empty Max")
	}
	count := 0
	tr.Ascend(func(int64, uint64) bool { count++; return true })
	if count != 0 {
		t.Fatal("empty Ascend")
	}
}

func TestInsertLookup(t *testing.T) {
	tr := New()
	for i := int64(0); i < 1000; i++ {
		tr.Insert(i, uint64(i*10))
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := int64(0); i < 1000; i++ {
		var got []uint64
		tr.Lookup(i, func(v uint64) bool { got = append(got, v); return true })
		if len(got) != 1 || got[0] != uint64(i*10) {
			t.Fatalf("Lookup(%d) = %v", i, got)
		}
	}
	if tr.Contains(-1) || tr.Contains(1000) {
		t.Fatal("Contains out of range")
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := New()
	for v := uint64(0); v < 100; v++ {
		tr.Insert(7, v)
	}
	var got []uint64
	tr.Lookup(7, func(v uint64) bool { got = append(got, v); return true })
	if len(got) != 100 {
		t.Fatalf("dup lookup returned %d", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("dup order: got[%d] = %d", i, v)
		}
	}
}

func TestIdempotentInsert(t *testing.T) {
	tr := New()
	tr.Insert(1, 2)
	tr.Insert(1, 2)
	if tr.Len() != 1 {
		t.Fatalf("Len after duplicate insert = %d", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	for i := int64(0); i < 500; i++ {
		tr.Insert(i, uint64(i))
	}
	for i := int64(0); i < 500; i += 2 {
		if !tr.Delete(i, uint64(i)) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if tr.Delete(0, 0) {
		t.Fatal("double delete")
	}
	if tr.Delete(9999, 0) {
		t.Fatal("delete absent")
	}
	if tr.Len() != 250 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := int64(0); i < 500; i++ {
		want := i%2 == 1
		if tr.Contains(i) != want {
			t.Fatalf("Contains(%d) = %v", i, !want)
		}
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i++ {
		tr.Insert(i*2, uint64(i)) // even keys 0..198
	}
	var keys []int64
	tr.AscendRange(10, 20, func(k int64, _ uint64) bool { keys = append(keys, k); return true })
	want := []int64{10, 12, 14, 16, 18, 20}
	if len(keys) != len(want) {
		t.Fatalf("range = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("range = %v", keys)
		}
	}
	// Early stop.
	n := 0
	tr.AscendRange(0, 198, func(int64, uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop n = %d", n)
	}
	// Empty range.
	n = 0
	tr.AscendRange(11, 11, func(int64, uint64) bool { n++; return true })
	if n != 0 {
		t.Fatal("empty range visited entries")
	}
}

func TestMinMaxHeight(t *testing.T) {
	tr := New()
	for i := int64(100); i >= 1; i-- {
		tr.Insert(i, 0)
	}
	if mn, _ := tr.Min(); mn != 1 {
		t.Fatalf("Min = %d", mn)
	}
	if mx, _ := tr.Max(); mx != 100 {
		t.Fatalf("Max = %d", mx)
	}
	// 100k entries with degree 64 must stay shallow (log_32(1e5) ~ 4).
	big := New()
	for i := int64(0); i < 100000; i++ {
		big.Insert(i, uint64(i))
	}
	if h := big.Height(); h > 5 {
		t.Fatalf("height = %d", h)
	}
}

func TestRandomizedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New()
	oracle := map[[2]uint64]bool{}
	for i := 0; i < 20000; i++ {
		k := int64(rng.Intn(2000))
		v := uint64(rng.Intn(10))
		key := [2]uint64{uint64(k), v}
		if rng.Intn(3) == 0 {
			want := oracle[key]
			if got := tr.Delete(k, v); got != want {
				t.Fatalf("Delete(%d,%d) = %v want %v", k, v, got, want)
			}
			delete(oracle, key)
		} else {
			tr.Insert(k, v)
			oracle[key] = true
		}
	}
	if tr.Len() != len(oracle) {
		t.Fatalf("Len = %d oracle %d", tr.Len(), len(oracle))
	}
	// Full ascend matches sorted oracle.
	var want [][2]uint64
	for k := range oracle {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i][0] != want[j][0] {
			return int64(want[i][0]) < int64(want[j][0])
		}
		return want[i][1] < want[j][1]
	})
	i := 0
	tr.Ascend(func(k int64, v uint64) bool {
		if i >= len(want) || int64(want[i][0]) != k || want[i][1] != v {
			t.Fatalf("ascend mismatch at %d: (%d,%d)", i, k, v)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("ascend visited %d of %d", i, len(want))
	}
}

// Property: AscendRange(lo,hi) returns exactly the inserted keys within
// [lo,hi], in order.
func TestQuickRange(t *testing.T) {
	f := func(keys []int64, lo, hi int64) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		tr := New()
		set := map[int64]bool{}
		for _, k := range keys {
			k %= 1000
			tr.Insert(k, uint64(k))
			set[k] = true
		}
		var want []int64
		for k := range set {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []int64
		tr.AscendRange(lo, hi, func(k int64, _ uint64) bool { got = append(got, k); return true })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeKeys(t *testing.T) {
	tr := New()
	for i := int64(-50); i <= 50; i++ {
		tr.Insert(i, uint64(i+50))
	}
	var got []int64
	tr.AscendRange(-10, 10, func(k int64, _ uint64) bool { got = append(got, k); return true })
	if len(got) != 21 || got[0] != -10 || got[20] != 10 {
		t.Fatalf("negative range = %v", got)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(int64(i), uint64(i))
	}
}

func BenchmarkLookup(b *testing.B) {
	tr := New()
	for i := int64(0); i < 1_000_000; i++ {
		tr.Insert(i, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(int64(i%1_000_000), func(uint64) bool { return true })
	}
}

// collect returns every entry with lo <= key <= hi, in scan order.
func collect(tr *Tree, lo, hi int64) []Entry {
	var out []Entry
	tr.AscendRange(lo, hi, func(k int64, v uint64) bool {
		out = append(out, Entry{k, v})
		return true
	})
	return out
}

// TestBulkLoadMatchesInsert: a bulk-loaded tree and one grown by Insert
// answer every range identically — on sorted, shuffled and duplicate-key
// input, across sizes that leave a lone child, a full root and three
// levels — and the bulk-loaded tree keeps accepting Insert and Delete.
func TestBulkLoadMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{0, 1, degree, degree + 1, degree * (degree + 1), degree*(degree+1) + 1, 20000}
	shapes := map[string]func(i int) Entry{
		"sorted":     func(i int) Entry { return Entry{int64(i), uint64(i)} },
		"duplicates": func(i int) Entry { return Entry{int64(i / 97), uint64(i % 97)} },
		"repeated":   func(i int) Entry { return Entry{int64(i % 50), uint64(i % 7)} }, // identical pairs recur
	}
	for name, shape := range shapes {
		for _, n := range sizes {
			for _, shuffle := range []bool{false, true} {
				entries := make([]Entry, n)
				for i := range entries {
					entries[i] = shape(i)
				}
				if shuffle {
					rng.Shuffle(n, func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
				}
				want := New()
				for _, e := range entries {
					want.Insert(e.Key, e.Val)
				}
				got := BulkLoad(entries)
				check := func(stage string) {
					t.Helper()
					if got.Len() != want.Len() {
						t.Fatalf("%s n=%d shuffle=%v %s: Len %d, want %d", name, n, shuffle, stage, got.Len(), want.Len())
					}
					for trial := 0; trial < 20; trial++ {
						lo := int64(rng.Intn(n+2)) - 1
						hi := lo + int64(rng.Intn(n/4+2))
						if trial == 0 {
							lo, hi = -1<<62, 1<<62
						}
						g, w := collect(got, lo, hi), collect(want, lo, hi)
						if len(g) != len(w) {
							t.Fatalf("%s n=%d shuffle=%v %s: [%d,%d] has %d entries, want %d", name, n, shuffle, stage, lo, hi, len(g), len(w))
						}
						for i := range g {
							if g[i] != w[i] {
								t.Fatalf("%s n=%d %s: [%d,%d] entry %d = %v, want %v", name, n, stage, lo, hi, i, g[i], w[i])
							}
						}
					}
				}
				check("loaded")
				for i := 0; i < 300; i++ {
					k, v := int64(rng.Intn(n+10)), uint64(rng.Intn(100))
					if rng.Intn(3) == 0 {
						if got.Delete(k, v) != want.Delete(k, v) {
							t.Fatalf("%s n=%d: Delete(%d,%d) disagrees", name, n, k, v)
						}
					} else {
						got.Insert(k, v)
						want.Insert(k, v)
					}
				}
				check("mutated")
			}
		}
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	const n = 200_000
	src := make([]Entry, n)
	for i := range src {
		src[i] = Entry{int64(i), uint64(i)}
	}
	entries := make([]Entry, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(entries, src)
		if BulkLoad(entries).Len() != n {
			b.Fatal("short tree")
		}
	}
}
