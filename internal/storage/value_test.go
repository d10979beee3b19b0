package storage

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

var testSchema = Schema{
	{Name: "id", Type: TInt64},
	{Name: "x", Type: TFloat64},
	{Name: "y", Type: TFloat64},
	{Name: "name", Type: TString},
	{Name: "flag", Type: TBool},
}

func sampleRow(id int64) Row {
	return Row{I64(id), F64(float64(id) * 1.5), F64(-float64(id)), Str("row"), Bool(id%2 == 0)}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	row := Row{I64(-42), F64(3.14159), F64(math.Inf(1)), Str("héllo\x00world"), Bool(true)}
	buf, err := EncodeRow(nil, testSchema, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow(buf, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if !got[i].Equal(row[i]) {
			t.Fatalf("col %d: got %v want %v", i, got[i], row[i])
		}
	}
}

func TestEncodeArityMismatch(t *testing.T) {
	if _, err := EncodeRow(nil, testSchema, Row{I64(1)}); err == nil {
		t.Fatal("expected arity error")
	}
	if err := DecodeRowInto(nil, testSchema, make(Row, 1)); err == nil {
		t.Fatal("expected dst arity error")
	}
}

func TestDecodeTruncated(t *testing.T) {
	row := sampleRow(7)
	buf, err := EncodeRow(nil, testSchema, row)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeRow(buf[:cut], testSchema); err == nil {
			t.Fatalf("expected error at cut %d", cut)
		}
	}
}

func TestCheckTuple(t *testing.T) {
	buf, err := EncodeRow(nil, testSchema, sampleRow(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTuple(buf, testSchema); err != nil {
		t.Fatalf("encoded row refused: %v", err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if CheckTuple(buf[:cut], testSchema) == nil {
			t.Fatalf("tuple cut to %d of %d bytes accepted", cut, len(buf))
		}
	}
	if CheckTuple(append(buf, 0), testSchema) == nil {
		t.Fatal("tuple with a trailing byte accepted")
	}
}

func TestEncodeAppends(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	buf, err := EncodeRow(prefix, Schema{{Name: "v", Type: TInt64}}, Row{I64(9)})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 10 || buf[0] != 0xAA || buf[1] != 0xBB {
		t.Fatalf("append semantics broken: %v", buf)
	}
}

func TestValueCoercions(t *testing.T) {
	if I64(7).AsFloat() != 7.0 {
		t.Fatal("int AsFloat")
	}
	if F64(7.9).AsInt() != 7 {
		t.Fatal("float AsInt truncation")
	}
	if Str("x").AsFloat() != 0 || Bool(true).AsInt() != 0 {
		t.Fatal("non-numeric coercions should be zero")
	}
}

func TestValueEqual(t *testing.T) {
	if !I64(1).Equal(F64(1.0)) {
		t.Fatal("cross-kind numeric equality")
	}
	if I64(1).Equal(F64(1.5)) {
		t.Fatal("unequal numerics")
	}
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Str("b")) {
		t.Fatal("string equality")
	}
	if Str("1").Equal(I64(1)) {
		t.Fatal("string/int must not be equal")
	}
	if !Bool(true).Equal(Bool(true)) || Bool(true).Equal(Bool(false)) {
		t.Fatal("bool equality")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{I64(1), I64(2), -1},
		{I64(2), I64(2), 0},
		{F64(2.5), I64(2), 1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
	}
	for i, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("case %d: Compare(%v,%v) = %d want %d", i, c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("case %d: antisymmetry broken", i)
		}
	}
}

func TestValueString(t *testing.T) {
	if I64(3).String() != "3" || F64(1.5).String() != "1.5" ||
		Str("hi").String() != "hi" || Bool(true).String() != "true" {
		t.Fatal("String formatting")
	}
}

func TestColTypeString(t *testing.T) {
	for ct, want := range map[ColType]string{TInt64: "INT", TFloat64: "DOUBLE", TString: "TEXT", TBool: "BOOL"} {
		if ct.String() != want {
			t.Fatalf("%d.String() = %s", ct, ct.String())
		}
	}
}

func TestSchemaColIndex(t *testing.T) {
	if testSchema.ColIndex("y") != 2 {
		t.Fatal("ColIndex y")
	}
	if testSchema.ColIndex("missing") != -1 {
		t.Fatal("ColIndex missing")
	}
}

// Property: any (int, float, string, bool) tuple round-trips.
func TestQuickRowRoundtrip(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		if math.IsNaN(fl) {
			fl = 0 // NaN != NaN; excluded from equality check
		}
		row := Row{I64(i), F64(fl), F64(fl / 3), Str(s), Bool(b)}
		buf, err := EncodeRow(nil, testSchema, row)
		if err != nil {
			return false
		}
		got, err := DecodeRow(buf, testSchema)
		if err != nil {
			return false
		}
		for k := range row {
			if !got[k].Equal(row[k]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesValueRoundtrip(t *testing.T) {
	raw := []byte{0x00, 0xff, 0x7f, 'k', 'y', 0x01}
	v := Bytes(raw)
	if v.Kind != TString {
		t.Fatalf("Bytes kind = %v", v.Kind)
	}
	got := v.AsBytes()
	if !bytes.Equal(got, raw) {
		t.Fatalf("AsBytes = %x, want %x", got, raw)
	}
	// The value owns its copy: mutating the source must not leak in,
	// and mutating the output must not corrupt the value.
	raw[0] = 0xaa
	got[1] = 0xbb
	if !bytes.Equal(v.AsBytes(), []byte{0x00, 0xff, 0x7f, 'k', 'y', 0x01}) {
		t.Fatalf("value aliased caller memory: %x", v.AsBytes())
	}
	// Binary payloads survive the row codec unchanged.
	schema := Schema{{Name: "payload", Type: TString}}
	buf, err := EncodeRow(nil, schema, Row{Bytes([]byte{0, 1, 2, 0xfe})})
	if err != nil {
		t.Fatal(err)
	}
	row, err := DecodeRow(buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(row[0].AsBytes(), []byte{0, 1, 2, 0xfe}) {
		t.Fatalf("roundtrip = %x", row[0].AsBytes())
	}
	if I64(7).AsBytes() != nil {
		t.Fatal("AsBytes on INT returned non-nil")
	}
}
