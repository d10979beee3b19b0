package cache

// sketch is a 4-bit count-min sketch with periodic halving — the
// frequency histogram behind TinyLFU admission. Each key's access
// count is recorded in `depth` rows of 4-bit saturating counters; the
// estimate is the minimum across rows, so collisions only ever inflate
// a count. After sampleFactor*width recorded accesses every counter is
// halved ("aging"), which turns the raw counts into an exponentially
// decayed frequency: a key that was hot an hour ago but is cold now
// loses its privilege within a few sample periods.
//
// The sketch is NOT internally synchronized: each cache shard owns one
// and mutates it under the shard mutex.
type sketch struct {
	// rows[r] holds width 4-bit counters packed 16 per uint64.
	rows [sketchDepth][]uint64
	// mask = width-1 (width is a power of two).
	mask uint64
	// additions counts recorded accesses since the last halving;
	// resetAt is the halving threshold.
	additions, resetAt int
}

const (
	sketchDepth = 4
	// sampleFactor scales the aging period: counters are halved after
	// sampleFactor*width additions, keeping estimates a decayed window
	// over roughly that many recent accesses.
	sampleFactor = 8
	// counterMax is the 4-bit saturation ceiling.
	counterMax = 15
)

// newSketch builds a sketch with at least `counters` counters per row
// (rounded up to a power of two, floored at 64 so tiny shards still
// discriminate a handful of keys).
func newSketch(counters int) *sketch {
	if counters < 64 {
		counters = 64
	}
	w := uint64(nextPow2(counters))
	sk := &sketch{mask: w - 1}
	for r := range sk.rows {
		sk.rows[r] = make([]uint64, w/16)
	}
	sk.resetAt = sampleFactor * int(w)
	if sk.resetAt < 256 {
		sk.resetAt = 256
	}
	return sk
}

// rowSeeds are odd 64-bit multipliers (splitmix64 constants) that
// derive per-row indexes from one key hash.
var rowSeeds = [sketchDepth]uint64{
	0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xd6e8feb86659fd93,
}

// idx returns the counter index for hash h in row r.
func (sk *sketch) idx(h uint64, r int) uint64 {
	h = (h ^ (h >> 33)) * rowSeeds[r]
	h ^= h >> 29
	return h & sk.mask
}

// counter reads the 4-bit counter at index i of row r.
func (sk *sketch) counter(r int, i uint64) uint64 {
	return (sk.rows[r][i>>4] >> ((i & 15) * 4)) & counterMax
}

// add records one access of the key with hash h, halving all counters
// when the sample period elapses.
func (sk *sketch) add(h uint64) {
	bumped := false
	for r := 0; r < sketchDepth; r++ {
		i := sk.idx(h, r)
		if c := sk.counter(r, i); c < counterMax {
			sk.rows[r][i>>4] += 1 << ((i & 15) * 4)
			bumped = true
		}
	}
	if bumped {
		sk.additions++
		if sk.additions >= sk.resetAt {
			sk.halve()
		}
	}
}

// estimate returns the decayed access-frequency estimate for hash h:
// the minimum counter across rows (0..15).
func (sk *sketch) estimate(h uint64) int {
	min := uint64(counterMax)
	for r := 0; r < sketchDepth; r++ {
		if c := sk.counter(r, sk.idx(h, r)); c < min {
			min = c
		}
	}
	return int(min)
}

// halveMask clears the low bit of every 4-bit lane so a word-wide
// shift-right-by-one halves all 16 counters at once.
const halveMask = 0x7777777777777777

// halve ages the sketch: every counter is divided by two.
func (sk *sketch) halve() {
	for r := range sk.rows {
		row := sk.rows[r]
		for i := range row {
			row[i] = (row[i] >> 1) & halveMask
		}
	}
	sk.additions /= 2
}

// reset zeroes every counter (used by Clear: after an update the old
// popularity histogram no longer describes the data).
func (sk *sketch) reset() {
	for r := range sk.rows {
		row := sk.rows[r]
		for i := range row {
			row[i] = 0
		}
	}
	sk.additions = 0
}

// fnv64a hashes a key for the sketch (distinct from the 32-bit shard
// hash so shard routing and sketch indexes decorrelate).
func fnv64a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}
