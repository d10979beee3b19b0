package rtree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"kyrix/internal/geom"
)

var everything = geom.Rect{MinX: -1e18, MinY: -1e18, MaxX: 1e18, MaxY: 1e18}

func searchVals(tr *Tree, w geom.Rect) []uint64 {
	var vals []uint64
	tr.Search(w, func(it Item) bool { vals = append(vals, it.Val); return true })
	return vals
}

// leaves returns the tree's leaves in search order.
func leaves(tr *Tree) []*node {
	var out []*node
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			out = append(out, n)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
	return out
}

// TestBulkLoadSearchOrder: after BulkLoad, items holds the entries in
// the order a full-extent Search returns them, and each leaf is a
// capacity-capped window of items, in that order.
func TestBulkLoadSearchOrder(t *testing.T) {
	for _, n := range []int{1, maxEntries, maxEntries + 1, 300, 5000, 40000} {
		items := randomItems(n, int64(n), 1e5)
		tr := BulkLoad(items)
		got := searchVals(tr, everything)
		if len(got) != n {
			t.Fatalf("n=%d: search returned %d items", n, len(got))
		}
		for i, v := range got {
			if items[i].Val != v {
				t.Fatalf("n=%d: items[%d].Val = %d, search order has %d", n, i, items[i].Val, v)
			}
		}
		if slices.Sort(got); got[0] != 0 || got[n-1] != uint64(n-1) || len(slices.Compact(got)) != n {
			t.Fatalf("n=%d: search does not return every input once", n)
		}
		o := 0
		for _, l := range leaves(tr) {
			if &l.items[0] != &items[o] || cap(l.items) != len(l.items) {
				t.Fatalf("n=%d: leaf at %d is not items[%d:%d:%d]", n, o, o, o+len(l.items), o+len(l.items))
			}
			o += len(l.items)
		}
	}
}

// TestQuickMutationsStayInTheirLeaf: random Inserts and Deletes on a
// bulk-loaded tree answer like brute force, and no operation takes an
// entry from a leaf other than the deleted entry's own — a leaf
// appending past its window of the shared array would overwrite its
// neighbour's first entry.
func TestQuickMutationsStayInTheirLeaf(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(600)
		alive := randomItems(n, seed, 3000)
		tr := BulkLoad(append([]Item(nil), alive...))
		next := uint64(n)
		for op := 0; op < 300; op++ {
			before := map[*node][]uint64{}
			for _, l := range leaves(tr) {
				for _, it := range l.items {
					before[l] = append(before[l], it.Val)
				}
			}
			deleted := ^uint64(0)
			if rng.Intn(2) == 0 && len(alive) > 0 {
				i := rng.Intn(len(alive))
				it := alive[i]
				if !tr.Delete(it.Box, it.Val) {
					t.Logf("seed %d op %d: Delete(%d) missed", seed, op, it.Val)
					return false
				}
				deleted = it.Val
				alive[i] = alive[len(alive)-1]
				alive = alive[:len(alive)-1]
			} else {
				it := Item{Box: pt(rng.Float64()*3000, rng.Float64()*3000), Val: next}
				next++
				tr.Insert(it.Box, it.Val)
				alive = append(alive, it)
			}
			for _, l := range leaves(tr) {
				was, ok := before[l]
				if !ok {
					continue
				}
				now := map[uint64]bool{}
				for _, it := range l.items {
					now[it.Val] = true
				}
				for _, v := range was {
					if !now[v] && v != deleted {
						t.Logf("seed %d op %d: a leaf lost entry %d", seed, op, v)
						return false
					}
				}
			}
			if tr.Len() != len(alive) {
				return false
			}
			w := geom.RectXYWH(rng.Float64()*2700, rng.Float64()*2700, 300, 300)
			if tr.Count(w) != bruteCount(alive, w) {
				t.Logf("seed %d op %d: window count differs from brute force", seed, op)
				return false
			}
		}
		got := searchVals(tr, everything)
		want := make([]uint64, len(alive))
		for i, it := range alive {
			want[i] = it.Val
		}
		slices.Sort(got)
		slices.Sort(want)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// sameTree reports whether a and b have the same shape, boxes and
// entries.
func sameTree(a, b *node) bool {
	if a.leaf != b.leaf || a.box != b.box || len(a.items) != len(b.items) || len(a.children) != len(b.children) {
		return false
	}
	if !slices.Equal(a.items, b.items) {
		return false
	}
	for i := range a.children {
		if !sameTree(a.children[i], b.children[i]) {
			return false
		}
	}
	return true
}

// TestBulkLoadDeterministic: the same input builds the same tree, also
// when many centres tie (a grid with every point repeated), so cluster
// peers that load the same rows serve byte-identical payloads.
func TestBulkLoadDeterministic(t *testing.T) {
	var items []Item
	for i := 0; i < 30000; i++ {
		x, y := float64(i%97), float64(i/97%31)
		items = append(items, Item{Box: pt(x, y), Val: uint64(i)})
	}
	rand.New(rand.NewSource(5)).Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	a := BulkLoad(append([]Item(nil), items...))
	b := BulkLoad(append([]Item(nil), items...))
	if !sameTree(a.root, b.root) {
		t.Fatal("two bulk loads of one input built different trees")
	}
}

// TestSortKeyedPathsAgree: the radix path and the comparison path of
// sortKeyed produce the same (key, idx) order, duplicates included.
func TestSortKeyedPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{radixMin, 3 * radixMin, 50000} {
		ks := make([]keyed, n)
		for i := range ks {
			f := float64(rng.Intn(200)-100) * 0.5 // negatives, zero and heavy ties
			ks[i] = keyed{key: floatKey(f), idx: int32(i)}
		}
		rng.Shuffle(n, func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		want := slices.Clone(ks)
		slices.SortFunc(want, cmpKeyed)
		sortKeyed(ks)
		if !slices.Equal(ks, want) {
			t.Fatalf("n=%d: radix order differs from (key, idx) order", n)
		}
	}
	if floatKey(-2) >= floatKey(-1) || floatKey(-1) >= floatKey(0) || floatKey(0) >= floatKey(0.5) {
		t.Fatal("floatKey does not preserve order")
	}
}
