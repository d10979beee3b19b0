package fetch

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"kyrix/internal/geom"
)

// TestBoxKeysDistinguishFractions: two boxes less than half a canvas
// unit apart used to format to one key (%.0f), so the second was served
// the first's rows.
func TestBoxKeysDistinguishFractions(t *testing.T) {
	a := BoxKeyOf("main/0", geom.Rect{MinX: 10, MinY: 0, MaxX: 20, MaxY: 5})
	b := BoxKeyOf("main/0", geom.Rect{MinX: 10.4, MinY: 0, MaxX: 20, MaxY: 5})
	if a == b {
		t.Fatalf("boxes 0.4 apart share the key %q", a)
	}
	if a != "b/main/0/10/0/20/5" {
		t.Fatalf("integral box key changed spelling: %q", a)
	}
	if k := TileKeyOf("main/0", 1024, geom.TileID{Col: 3, Row: 7}); k != "t/main/0/1024/3/7" {
		t.Fatalf("integral tile key changed spelling: %q", k)
	}
	if TileKeyOf("l", 0.5, geom.TileID{}) == TileKeyOf("l", 0.25, geom.TileID{}) {
		t.Fatal("fractional tile sizes share a key")
	}
}

func randomLayer(rng *rand.Rand) string {
	const alphabet = "ab/0._-é "
	n := rng.Intn(8)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

func randomCoord(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return float64(rng.Intn(200000) - 1000)
	case 1:
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(2046)+1)<<52) // any finite normal
	case 2:
		return 0
	default:
		return (rng.Float64() - 0.1) * 131072
	}
}

// TestKeyWindowInvertsKeyOf: for random layer ids (including ones
// holding '/'), boxes and tiles, KeyWindow(KeyOf(x)) == x.
func TestKeyWindowInvertsKeyOf(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		layer := randomLayer(rng)
		a, b, c, d := randomCoord(rng), randomCoord(rng), randomCoord(rng), randomCoord(rng)
		box := geom.Rect{MinX: math.Min(a, c), MinY: math.Min(b, d), MaxX: math.Max(a, c), MaxY: math.Max(b, d)}
		key := BoxKeyOf(layer, box)
		if gl, gw, ok := KeyWindow(key); !ok || gl != layer || gw != box {
			t.Fatalf("box key %q -> (%q, %v, %v), want (%q, %v)", key, gl, gw, ok, layer, box)
		}
		size := math.Abs(randomCoord(rng)) + math.SmallestNonzeroFloat64
		tid := geom.TileID{Col: rng.Intn(1 << 20), Row: rng.Intn(1 << 20)}
		key = TileKeyOf(layer, size, tid)
		if gl, gw, ok := KeyWindow(key); !ok || gl != layer || gw != tid.TileRect(size) {
			t.Fatalf("tile key %q -> (%q, %v, %v), want (%q, %v)", key, gl, gw, ok, layer, tid.TileRect(size))
		}
	}
	for _, bad := range []string{
		"", "b", "b/", "x/l/1/2/3/4", "b/l/1/2/3", "b/l/3/0/1/0", "b/l/1/2/3/NaN", "b/l/1/2/3/+Inf",
		"b/l/1/2/3/4.0", "b/l/1e2/2/300/4", "b/l/01/2/3/4", "b/l/ 1/2/3/4", "b/l/0x1p4/2/30/4",
		"t/l/256/1", "t/l/0/1/1", "t/l/-256/1/1", "t/l/256/-1/1", "t/l/256/+1/1", "t/l/256/01/1", "t/l/256/1/1.0",
	} {
		if l, w, ok := KeyWindow(bad); ok {
			t.Errorf("KeyWindow(%q) accepted as (%q, %v)", bad, l, w)
		}
	}
}

// FuzzKeyWindow: any string is either rejected — the cache sweep then
// removes it — or re-encodes to itself, so an accepted key names exactly
// one window.
func FuzzKeyWindow(f *testing.F) {
	f.Add("b/main/0/10.4/0/20/5")
	f.Add("t/main/0/1024/3/7")
	f.Add("b/a/b//1e+21/-0/1e+22/5e-324")
	f.Add("t//0.5/0/0")
	f.Add("b/l/1/2/3/4.0")
	f.Fuzz(func(t *testing.T, key string) {
		layer, window, ok := KeyWindow(key)
		if !ok {
			return
		}
		if !window.Valid() {
			t.Fatalf("KeyWindow(%q) accepted the invalid window %v", key, window)
		}
		if key[0] == 'b' {
			if again := BoxKeyOf(layer, window); again != key {
				t.Fatalf("box key %q re-encodes to %q", key, again)
			}
			return
		}
		// A tile's window does not determine its size to the bit; take the
		// three numbers from the key, the layer from KeyWindow.
		f := strings.Split(key, "/")
		size, _ := strconv.ParseFloat(f[len(f)-3], 64)
		col, _ := strconv.Atoi(f[len(f)-2])
		row, _ := strconv.Atoi(f[len(f)-1])
		tid := geom.TileID{Col: col, Row: row}
		if again := TileKeyOf(layer, size, tid); again != key || window != tid.TileRect(size) {
			t.Fatalf("tile key %q re-encodes to %q, window %v vs %v", key, again, window, tid.TileRect(size))
		}
	})
}
