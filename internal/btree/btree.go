// Package btree implements the B+tree used for Kyrix's tuple-id and
// tile-id indexes (the paper's first database design: "Btree/hash
// indexes on the tuple_id column of the first table and the tile_id
// column of the second table").
//
// Entries are (key int64, val uint64) pairs; duplicate keys are allowed
// and are ordered by val, so the tile-id secondary index can hold many
// tuple references per tile. Leaves are linked for range scans.
package btree

import (
	"cmp"
	"slices"
	"sort"
)

// degree is the fan-out: max keys per node. 64 keeps nodes around a
// cache line multiple and trees shallow at the experiment scales.
const degree = 64

// Entry is one (key, val) pair: the element of a leaf, and what BulkLoad
// is fed.
type Entry struct {
	Key int64
	Val uint64
}

type node struct {
	leaf     bool
	entries  []Entry // leaf: data entries; internal: separator keys in entries[i].Key
	children []*node // internal only; len(children) == len(entries)+1
	next     *node   // leaf chain
}

// Tree is a B+tree mapping int64 keys to uint64 payloads with
// duplicates. The zero value is not usable; call New. Not safe for
// concurrent mutation; the DB layer serializes writers.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// BulkLoad builds a tree over entries bottom-up: leaves packed to degree
// and chained, then one level of separators at a time. The tree takes
// ownership of the slice — it is sorted in place by (key, val) when it is
// not already, duplicate pairs are dropped (Insert is idempotent), and
// every leaf is a sub-slice of it, so a million-entry index costs the
// 16 B/entry of the array itself and no second copy. Leaves are capped
// at their own length: a later Insert into one reallocates that leaf
// and never writes into its neighbour.
func BulkLoad(entries []Entry) *Tree {
	byKeyVal := func(a, b Entry) int { return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Val, b.Val)) }
	if !slices.IsSortedFunc(entries, byKeyVal) {
		slices.SortFunc(entries, byKeyVal)
	}
	entries = slices.Compact(entries)
	if len(entries) == 0 {
		return New()
	}
	// level holds the nodes of the level being built; firsts[i] is the
	// smallest entry under level[i], which is its separator one level up.
	var level []*node
	var firsts []Entry
	for i := 0; i < len(entries); i += degree {
		j := min(i+degree, len(entries))
		n := &node{leaf: true, entries: entries[i:j:j]}
		if len(level) > 0 {
			level[len(level)-1].next = n
		}
		level = append(level, n)
		firsts = append(firsts, entries[i])
	}
	for len(level) > 1 {
		var up []*node
		var upFirsts []Entry
		for i := 0; i < len(level); i += degree + 1 {
			j := min(i+degree+1, len(level))
			up = append(up, &node{
				entries:  append([]Entry(nil), firsts[i+1:j]...),
				children: append([]*node(nil), level[i:j]...),
			})
			upFirsts = append(upFirsts, firsts[i])
		}
		level, firsts = up, upFirsts
	}
	return &Tree{root: level[0], size: len(entries)}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// search returns the index of the first entry in n.entries whose
// (key,val) is >= (k,v).
func searchEntries(entries []Entry, k int64, v uint64) int {
	return sort.Search(len(entries), func(i int) bool {
		e := entries[i]
		return e.Key > k || (e.Key == k && e.Val >= v)
	})
}

// childIndex picks the child to descend into for (k, v). Separators come
// from splits where the right sibling holds entries >= the separator, so
// descent goes right on an exact separator match: the first separator
// strictly greater than (k, v) bounds the correct child.
func childIndex(n *node, k int64, v uint64) int {
	return sort.Search(len(n.entries), func(i int) bool {
		e := n.entries[i]
		return e.Key > k || (e.Key == k && e.Val > v)
	})
}

// Insert adds (key, val). Duplicate (key, val) pairs are stored once
// (idempotent), which makes index rebuilds safe to re-run.
func (t *Tree) Insert(key int64, val uint64) {
	newChild, sep, grew := t.insert(t.root, key, val)
	if grew {
		t.size++
	}
	if newChild != nil {
		t.root = &node{
			entries:  []Entry{sep},
			children: []*node{t.root, newChild},
		}
	}
}

// insert descends, splitting children on the way back up. Returns a new
// right sibling and its separator when n split, and whether the tree
// gained an entry.
func (t *Tree) insert(n *node, key int64, val uint64) (*node, Entry, bool) {
	if n.leaf {
		i := searchEntries(n.entries, key, val)
		if i < len(n.entries) && n.entries[i].Key == key && n.entries[i].Val == val {
			return nil, Entry{}, false // idempotent
		}
		n.entries = append(n.entries, Entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = Entry{key, val}
		if len(n.entries) <= degree {
			return nil, Entry{}, true
		}
		right := t.splitLeaf(n)
		return right, Entry{right.entries[0].Key, right.entries[0].Val}, true
	}
	ci := childIndex(n, key, val)
	newChild, sep, grew := t.insert(n.children[ci], key, val)
	if newChild == nil {
		return nil, Entry{}, grew
	}
	n.entries = append(n.entries, Entry{})
	copy(n.entries[ci+1:], n.entries[ci:])
	n.entries[ci] = sep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = newChild
	if len(n.entries) <= degree {
		return nil, Entry{}, grew
	}
	right, upSep := t.splitInternal(n)
	return right, upSep, grew
}

func (t *Tree) splitLeaf(n *node) *node {
	mid := len(n.entries) / 2
	right := &node{leaf: true, next: n.next}
	right.entries = append(right.entries, n.entries[mid:]...)
	n.entries = n.entries[:mid:mid]
	n.next = right
	return right
}

func (t *Tree) splitInternal(n *node) (*node, Entry) {
	mid := len(n.entries) / 2
	sep := n.entries[mid]
	right := &node{}
	right.entries = append(right.entries, n.entries[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.entries = n.entries[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return right, sep
}

// Delete removes (key, val), reporting whether it was present.
// Underflowed nodes are not rebalanced (deletes are rare in this
// workload: the §4 update model tags rather than removes); lookups stay
// correct because separators remain valid upper bounds.
func (t *Tree) Delete(key int64, val uint64) bool {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n, key, val)]
	}
	i := searchEntries(n.entries, key, val)
	if i >= len(n.entries) || n.entries[i].Key != key || n.entries[i].Val != val {
		return false
	}
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	t.size--
	return true
}

// Lookup calls fn with every payload stored under key, in val order.
// Returning false stops early.
func (t *Tree) Lookup(key int64, fn func(val uint64) bool) {
	t.AscendRange(key, key, func(_ int64, val uint64) bool { return fn(val) })
}

// Contains reports whether at least one entry exists for key.
func (t *Tree) Contains(key int64) bool {
	found := false
	t.Lookup(key, func(uint64) bool { found = true; return false })
	return found
}

// AscendRange calls fn for every entry with lo <= key <= hi in
// ascending (key, val) order. Returning false stops early.
func (t *Tree) AscendRange(lo, hi int64, fn func(key int64, val uint64) bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n, lo, 0)]
	}
	for n != nil {
		i := searchEntries(n.entries, lo, 0)
		for ; i < len(n.entries); i++ {
			e := n.entries[i]
			if e.Key > hi {
				return
			}
			if !fn(e.Key, e.Val) {
				return
			}
		}
		n = n.next
	}
}

// Ascend visits every entry in ascending order.
func (t *Tree) Ascend(fn func(key int64, val uint64) bool) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for n != nil {
		for _, e := range n.entries {
			if !fn(e.Key, e.Val) {
				return
			}
		}
		n = n.next
	}
}

// Min returns the smallest key, or ok=false when empty.
func (t *Tree) Min() (key int64, ok bool) {
	t.Ascend(func(k int64, _ uint64) bool { key, ok = k, true; return false })
	return
}

// Max returns the largest key, or ok=false when empty.
func (t *Tree) Max() (key int64, ok bool) {
	n := t.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	// The rightmost leaf can be empty after unbalanced deletes; walk
	// back via a full descent scan in that rare case.
	if len(n.entries) > 0 {
		return n.entries[len(n.entries)-1].Key, true
	}
	found := false
	var last int64
	t.Ascend(func(k int64, _ uint64) bool { last, found = k, true; return true })
	return last, found
}

// Height returns the tree height (1 for a lone leaf); used in tests to
// check balance.
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}
