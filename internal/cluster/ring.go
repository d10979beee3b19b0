// Package cluster is the horizontally scaled serving tier: N
// kyrix-server nodes partition tile/dbox cache-key ownership over a
// consistent-hash ring and fill each other's caches instead of each
// hammering the shared backing store. It is the groupcache pattern
// grown onto the Kyrix serving pipeline:
//
//   - A consistent-hash ring with virtual nodes (Ring) maps every
//     canonical cache key (the same strings internal/cache stores) to
//     exactly one owner node. Node join/leave moves only ~K/N keys.
//   - A non-owner that misses its local cache forwards the request to
//     the owner over HTTP (Transport), who serves it through its own
//     cache + singleflight path — so one database query serves the
//     whole cluster per key per generation.
//   - Keys whose sketch frequency crosses a threshold are replicated
//     into the non-owner's local cache ("hot-key replication"), so a
//     viral viewport does not bottleneck its owner.
//   - Updates reach every node through the replicated log
//     (internal/replog), which runs over this package's Transport.
//     Every peer reply carries the data version the owner served it
//     at, and a requester refuses a fill older than its own
//     (Node.FetchContext), so a peer never undoes an applied update.
//
// The package deliberately knows nothing about HTTP routing or SQL:
// the server wires it in (internal/server/peer.go), this package owns
// placement and transport.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the ring's default virtual-node count per
// physical node. More vnodes flatten the ownership distribution (the
// spread shrinks like 1/sqrt(vnodes)); 512 keeps 8-node ownership
// uniform within a few percent while the ring stays a few KB.
const DefaultVirtualNodes = 512

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring: every key hashes to a
// point on a circle and is owned by the first virtual node clockwise
// from it. Immutability keeps lookups lock-free; membership changes
// build a new ring (With/Without), which is how the join/leave
// remapping property is tested.
type Ring struct {
	vnodes int
	points []ringPoint
	nodes  []string
}

// NewRing builds a ring over the given physical nodes with vnodes
// virtual nodes each (0 = DefaultVirtualNodes). Duplicate node names
// collapse; order does not matter.
func NewRing(vnodes int, nodes ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(nodes))
	var uniq []string
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, nodes: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash: pointHash(n + "#" + strconv.Itoa(i)),
				node: n,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Deterministic tie-break so equal hashes (astronomically
		// rare) cannot make ownership depend on sort stability.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the node owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := keyHash(key)
	// First point clockwise (>= h), wrapping to the start.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Nodes returns the ring's physical nodes, sorted. The slice is shared;
// callers must not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// Size returns the number of physical nodes.
func (r *Ring) Size() int { return len(r.nodes) }

// With returns a new ring with node added (join).
func (r *Ring) With(node string) *Ring {
	return NewRing(r.vnodes, append(append([]string{}, r.nodes...), node)...)
}

// Without returns a new ring with node removed (leave).
func (r *Ring) Without(node string) *Ring {
	var keep []string
	for _, n := range r.nodes {
		if n != node {
			keep = append(keep, n)
		}
	}
	return NewRing(r.vnodes, keep...)
}

// String summarizes the ring for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring{%d nodes, %d vnodes}", len(r.nodes), r.vnodes)
}

// keyHash and pointHash are fnv-1a finished with a splitmix64-style
// avalanche: plain fnv distributes the short "node#N" vnode labels
// (and sequential tile keys) poorly on the high bits the ring search
// compares, which shows up directly as ownership skew.
func keyHash(s string) uint64 { return mix64(fnv64a(s)) }

func pointHash(s string) uint64 { return mix64(fnv64a(s)) }

func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
