// Package rtree implements the spatial index behind Kyrix's second
// database design ("we store a bbox attribute ... and build a spatial
// index on the bbox column"). PostgreSQL's GiST-on-box is an R-tree
// variant, so this is a faithful substitute: quadratic-split Guttman
// R-tree for incremental inserts plus Sort-Tile-Recursive (STR) bulk
// loading for the precomputation phase.
//
// A bulk-loaded tree keeps its entries in the caller's slice, in the
// order Search visits them, and that order is what sqldb lays a
// table's heap out in (see BulkLoad): a window query then reads its
// rows from a few adjacent pages instead of one page per row.
package rtree

import (
	"cmp"
	"math"
	"slices"

	"kyrix/internal/geom"
)

const (
	// maxEntries is M, the node capacity.
	maxEntries = 16
	// minEntries is m, the minimum fill on split.
	minEntries = 6
)

// Item is one indexed entry: a bounding box and an opaque payload
// (a packed RID in the DB layer).
type Item struct {
	Box geom.Rect
	Val uint64
}

type node struct {
	leaf     bool
	box      geom.Rect
	items    []Item  // leaf
	children []*node // internal
}

// Tree is an R-tree over geom.Rect bounding boxes. Not safe for
// concurrent mutation; the DB layer serializes writers.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Bounds returns the box covering all items; invalid when empty.
func (t *Tree) Bounds() geom.Rect {
	if t.size == 0 {
		return geom.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}
	}
	return t.root.box
}

func (n *node) recomputeBox() {
	if n.leaf {
		if len(n.items) == 0 {
			n.box = geom.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}
			return
		}
		b := n.items[0].Box
		for _, it := range n.items[1:] {
			b = b.Union(it.Box)
		}
		n.box = b
		return
	}
	if len(n.children) == 0 {
		n.box = geom.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}
		return
	}
	b := n.children[0].box
	for _, c := range n.children[1:] {
		b = b.Union(c.box)
	}
	n.box = b
}

// Insert adds an item.
func (t *Tree) Insert(box geom.Rect, val uint64) {
	item := Item{Box: box, Val: val}
	n1, n2 := t.insert(t.root, item)
	if n2 != nil {
		t.root = &node{children: []*node{n1, n2}}
		t.root.recomputeBox()
	}
	t.size++
}

// insert descends to a leaf; returns the (possibly split) node pair.
func (t *Tree) insert(n *node, item Item) (*node, *node) {
	if n.leaf {
		n.items = append(n.items, item)
		if len(n.items) == 1 {
			n.box = item.Box
		} else {
			n.box = n.box.Union(item.Box)
		}
		if len(n.items) > maxEntries {
			return splitLeaf(n)
		}
		return n, nil
	}
	best := chooseChild(n.children, item.Box)
	c1, c2 := t.insert(n.children[best], item)
	n.children[best] = c1
	if c2 != nil {
		n.children = append(n.children, c2)
	}
	n.box = n.box.Union(item.Box)
	if len(n.children) > maxEntries {
		return splitInternal(n)
	}
	return n, nil
}

// chooseChild implements Guttman's ChooseLeaf: least enlargement, ties
// broken by smaller area.
func chooseChild(children []*node, box geom.Rect) int {
	best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
	for i, c := range children {
		enl := c.box.Enlargement(box)
		area := c.box.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// quadratic pick-seeds over a generic box accessor.
func pickSeeds(boxes []geom.Rect) (int, int) {
	s1, s2, worst := 0, 1, math.Inf(-1)
	for i := 0; i < len(boxes); i++ {
		for j := i + 1; j < len(boxes); j++ {
			d := boxes[i].Union(boxes[j]).Area() - boxes[i].Area() - boxes[j].Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	return s1, s2
}

func splitLeaf(n *node) (*node, *node) {
	items := n.items
	boxes := make([]geom.Rect, len(items))
	for i, it := range items {
		boxes[i] = it.Box
	}
	g1, g2 := quadraticSplit(boxes)
	a := &node{leaf: true, items: make([]Item, 0, len(g1))}
	b := &node{leaf: true, items: make([]Item, 0, len(g2))}
	for _, i := range g1 {
		a.items = append(a.items, items[i])
	}
	for _, i := range g2 {
		b.items = append(b.items, items[i])
	}
	a.recomputeBox()
	b.recomputeBox()
	return a, b
}

func splitInternal(n *node) (*node, *node) {
	children := n.children
	boxes := make([]geom.Rect, len(children))
	for i, c := range children {
		boxes[i] = c.box
	}
	g1, g2 := quadraticSplit(boxes)
	a := &node{children: make([]*node, 0, len(g1))}
	b := &node{children: make([]*node, 0, len(g2))}
	for _, i := range g1 {
		a.children = append(a.children, children[i])
	}
	for _, i := range g2 {
		b.children = append(b.children, children[i])
	}
	a.recomputeBox()
	b.recomputeBox()
	return a, b
}

// quadraticSplit partitions indices of boxes into two groups per
// Guttman's quadratic algorithm, honoring minEntries.
func quadraticSplit(boxes []geom.Rect) (g1, g2 []int) {
	s1, s2 := pickSeeds(boxes)
	g1, g2 = []int{s1}, []int{s2}
	b1, b2 := boxes[s1], boxes[s2]
	rest := make([]int, 0, len(boxes)-2)
	for i := range boxes {
		if i != s1 && i != s2 {
			rest = append(rest, i)
		}
	}
	for len(rest) > 0 {
		// Force assignment when one group must take all remaining to
		// reach minEntries.
		if len(g1)+len(rest) == minEntries {
			for _, i := range rest {
				g1 = append(g1, i)
				b1 = b1.Union(boxes[i])
			}
			break
		}
		if len(g2)+len(rest) == minEntries {
			for _, i := range rest {
				g2 = append(g2, i)
				b2 = b2.Union(boxes[i])
			}
			break
		}
		// PickNext: max difference of enlargements.
		bestIdx, bestDiff := 0, -1.0
		for k, i := range rest {
			d1 := b1.Enlargement(boxes[i])
			d2 := b2.Enlargement(boxes[i])
			diff := math.Abs(d1 - d2)
			if diff > bestDiff {
				bestDiff, bestIdx = diff, k
			}
		}
		i := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		d1 := b1.Enlargement(boxes[i])
		d2 := b2.Enlargement(boxes[i])
		if d1 < d2 || (d1 == d2 && len(g1) < len(g2)) {
			g1 = append(g1, i)
			b1 = b1.Union(boxes[i])
		} else {
			g2 = append(g2, i)
			b2 = b2.Union(boxes[i])
		}
	}
	return g1, g2
}

// Search calls fn for every item whose box intersects window (edges
// inclusive, matching the paper's tile-overlap rule). Returning false
// stops the search.
func (t *Tree) Search(window geom.Rect, fn func(Item) bool) {
	if t.size == 0 {
		return
	}
	t.search(t.root, window, fn)
}

func (t *Tree) search(n *node, window geom.Rect, fn func(Item) bool) bool {
	if !n.box.Intersects(window) {
		return true
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Box.Intersects(window) {
				if !fn(it) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !t.search(c, window, fn) {
			return false
		}
	}
	return true
}

// Count returns the number of items intersecting window.
func (t *Tree) Count(window geom.Rect) int {
	n := 0
	t.Search(window, func(Item) bool { n++; return true })
	return n
}

// Delete removes one item equal to (box, val); reports success. Uses
// Guttman's condense-by-reinsert when a leaf underflows.
func (t *Tree) Delete(box geom.Rect, val uint64) bool {
	var orphans []Item
	found := t.remove(t.root, box, val, &orphans)
	if !found {
		return false
	}
	t.size--
	// Collapse a root with a single internal child.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	for _, it := range orphans {
		n1, n2 := t.insert(t.root, it)
		if n2 != nil {
			t.root = &node{children: []*node{n1, n2}}
			t.root.recomputeBox()
		}
	}
	return true
}

func (t *Tree) remove(n *node, box geom.Rect, val uint64, orphans *[]Item) bool {
	if !n.box.Intersects(box) {
		return false
	}
	if n.leaf {
		for i, it := range n.items {
			if it.Val == val && it.Box == box {
				n.items = append(n.items[:i], n.items[i+1:]...)
				n.recomputeBox()
				return true
			}
		}
		return false
	}
	for i, c := range n.children {
		if t.remove(c, box, val, orphans) {
			// Condense: drop underflowed children, re-insert content.
			under := (c.leaf && len(c.items) < minEntries) ||
				(!c.leaf && len(c.children) < minEntries)
			if under && len(n.children) > 1 {
				collectItems(c, orphans)
				n.children = append(n.children[:i], n.children[i+1:]...)
			}
			n.recomputeBox()
			return true
		}
	}
	return false
}

func collectItems(n *node, out *[]Item) {
	if n.leaf {
		*out = append(*out, n.items...)
		return
	}
	for _, c := range n.children {
		collectItems(c, out)
	}
}

// BulkLoad builds a tree from items using Sort-Tile-Recursive packing.
// It is dramatically faster than repeated Insert for the experiment
// datasets (millions of points) and produces well-packed leaves.
//
// The tree takes items over as its storage. On return items holds the
// entries in the order Search visits them — leaf by leaf, depth first —
// and each leaf owns a capacity-capped sub-slice of it. A caller may
// therefore rewrite an entry's Val in place (sqldb clusters a table's
// heap in this order and then points every entry at its row's new
// RID), and a later Insert or Delete writes only inside the leaf it
// changes, never into a neighbour's entries.
//
// Sorting is by box centre with ties broken by input position, so the
// same input always builds the same tree.
func BulkLoad(items []Item) *Tree {
	t := New()
	if len(items) == 0 {
		return t
	}
	t.size = len(items)
	leaves := strPack(items)
	level := leaves
	for len(level) > 1 {
		level = packNodes(level)
	}
	t.root = level[0]
	// Lay the leaves' entries out in search order, in the caller's array.
	o := 0
	var layout func(n *node)
	layout = func(n *node) {
		if !n.leaf {
			for _, c := range n.children {
				layout(c)
			}
			return
		}
		e := o + copy(items[o:], n.items)
		n.items = items[o:e:e]
		o = e
	}
	layout(t.root)
	return t
}

// keyed is one sort record: a centre coordinate as an order-preserving
// integer, and the position of its item or node in the input.
type keyed struct {
	key uint64
	idx int32
}

// floatKey maps f to an integer that sorts the way f does.
func floatKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

func cmpKeyed(a, b keyed) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// radixMin is the length from which sortKeyed switches from a
// comparison sort to an LSD radix sort. At a million items both of the
// leaf level's sorts (over all items, then over each vertical slice of
// about 4000) take the radix path.
const radixMin = 1024

// sortKeyed sorts ks by (key, idx). Long inputs take an LSD radix sort
// on 11-bit digits, which is stable; runs of equal keys are then put
// in idx order, so both paths produce the same order.
func sortKeyed(ks []keyed) {
	if len(ks) < radixMin {
		slices.SortFunc(ks, cmpKeyed)
		return
	}
	const bits, passes = 11, 6 // 6 × 11 ≥ 64
	var counts [passes][1 << bits]int
	for _, k := range ks {
		for p := 0; p < passes; p++ {
			counts[p][k.key>>(p*bits)&(1<<bits-1)]++
		}
	}
	src, dst := ks, make([]keyed, len(ks))
	for p := 0; p < passes; p++ {
		c := &counts[p]
		if c[src[0].key>>(p*bits)&(1<<bits-1)] == len(src) {
			continue // every key has the same digit here
		}
		sum := 0
		for d := range c {
			c[d], sum = sum, sum+c[d]
		}
		for _, k := range src {
			d := k.key >> (p * bits) & (1<<bits - 1)
			dst[c[d]] = k
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ks[0] {
		copy(ks, src)
	}
	for i := 0; i < len(ks); {
		j := i + 1
		for j < len(ks) && ks[j].key == ks[i].key {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(ks[i:j], cmpKeyed)
		}
		i = j
	}
}

// strTiles runs STR's two sorts over n entries whose centre is
// centre(i): keys comes back sorted by x and then, within each vertical
// slice of sliceCount runs of maxEntries, by y. Grouping its idx values
// maxEntries at a time gives the new level's nodes.
func strTiles(n int, centre func(i int) geom.Point) []keyed {
	groups := (n + maxEntries - 1) / maxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(groups))))
	sliceSize := sliceCount * maxEntries
	keys := make([]keyed, n)
	for i := range keys {
		keys[i] = keyed{key: floatKey(centre(i).X), idx: int32(i)}
	}
	sortKeyed(keys)
	for s := 0; s < n; s += sliceSize {
		slice := keys[s:min(s+sliceSize, n)]
		for j := range slice {
			slice[j].key = floatKey(centre(int(slice[j].idx)).Y)
		}
		sortKeyed(slice)
	}
	return keys
}

// strPack sorts items into leaf nodes with the STR algorithm. The
// leaves hold sub-slices of a temporary copy, in STR order; BulkLoad
// moves them back into items in search order.
func strPack(items []Item) []*node {
	keys := strTiles(len(items), func(i int) geom.Point { return items[i].Box.Center() })
	sorted := make([]Item, len(items))
	for j, k := range keys {
		sorted[j] = items[k.idx]
	}
	slab := make([]node, (len(sorted)+maxEntries-1)/maxEntries)
	leaves := make([]*node, len(slab))
	for i := range slab {
		o := i * maxEntries
		oe := min(o+maxEntries, len(sorted))
		slab[i] = node{leaf: true, items: sorted[o:oe:oe]}
		slab[i].recomputeBox()
		leaves[i] = &slab[i]
	}
	return leaves
}

// packNodes groups a level of nodes into parents, STR-style.
func packNodes(level []*node) []*node {
	keys := strTiles(len(level), func(i int) geom.Point { return level[i].box.Center() })
	slab := make([]node, (len(level)+maxEntries-1)/maxEntries)
	parents := make([]*node, len(slab))
	for i := range slab {
		o := i * maxEntries
		group := keys[o:min(o+maxEntries, len(keys))]
		children := make([]*node, len(group))
		for j, k := range group {
			children[j] = level[k.idx]
		}
		slab[i] = node{children: children}
		slab[i].recomputeBox()
		parents[i] = &slab[i]
	}
	return parents
}

// Height returns the tree height (1 = lone leaf). Used by balance tests.
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}
