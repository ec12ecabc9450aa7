package sqlval

import (
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{NewInt(42), KindInt},
		{NewFloat(3.5), KindFloat},
		{NewString("x"), KindString},
		{NewBool(true), KindBool},
		{NewTime(time.Unix(0, 0)), KindTime},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("Kind() = %v, want %v", c.v.Kind(), c.kind)
		}
	}
	if !Null().IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull misclassified")
	}
}

func TestAccessors(t *testing.T) {
	if NewInt(7).Int() != 7 {
		t.Error("Int accessor")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float accessor")
	}
	if NewFloat(2.9).Int() != 2 {
		t.Error("Float->Int truncation")
	}
	if NewInt(3).Float() != 3.0 {
		t.Error("Int->Float widening")
	}
	if NewString("abc").Str() != "abc" {
		t.Error("Str accessor")
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool accessor")
	}
	if NewInt(1).Bool() != true || NewInt(0).Bool() != false {
		t.Error("Int->Bool")
	}
	if NewString("41").Int() != 41 {
		t.Error("numeric string Int")
	}
	ts := time.Date(2015, 5, 31, 0, 0, 0, 0, time.UTC)
	if !NewTime(ts).Time().Equal(ts) {
		t.Error("Time accessor")
	}
}

func TestFromGo(t *testing.T) {
	for _, in := range []any{nil, 1, int8(1), int16(1), int32(1), int64(1), uint(1), uint32(1), uint64(1), float32(1), float64(1), "s", true, time.Now()} {
		if _, err := FromGo(in); err != nil {
			t.Errorf("FromGo(%T) error: %v", in, err)
		}
	}
	if _, err := FromGo(struct{}{}); err == nil {
		t.Error("FromGo(struct{}) should fail")
	}
	v, _ := FromGo(NewInt(9))
	if v.Int() != 9 {
		t.Error("FromGo(Value) passthrough")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewFloat(2), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{Null(), NewInt(0), -1},
		{NewInt(0), Null(), 1},
		{Null(), Null(), 0},
		{NewString("10"), NewInt(9), 1}, // numeric string compares numerically
		{NewBool(false), NewBool(true), -1},
		{NewTime(time.Unix(1, 0)), NewTime(time.Unix(2, 0)), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null(), Null()) {
		t.Error("NULL = NULL must be false")
	}
	if Equal(Null(), NewInt(0)) || Equal(NewInt(0), Null()) {
		t.Error("NULL = x must be false")
	}
	if !Equal(NewInt(5), NewFloat(5)) {
		t.Error("5 = 5.0 must be true")
	}
}

func TestCompareRows(t *testing.T) {
	a := []Value{NewInt(1), NewString("b")}
	b := []Value{NewInt(1), NewString("c")}
	if CompareRows(a, b) != -1 {
		t.Error("row compare second column")
	}
	if CompareRows(a, a) != 0 {
		t.Error("row compare equal")
	}
	if CompareRows([]Value{NewInt(1)}, a) != -1 {
		t.Error("shorter prefix sorts first")
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if mustV(Add(NewInt(2), NewInt(3))).Int() != 5 {
		t.Error("int add")
	}
	if mustV(Add(NewInt(2), NewFloat(0.5))).Float() != 2.5 {
		t.Error("mixed add widens to float")
	}
	if mustV(Sub(NewInt(2), NewInt(3))).Int() != -1 {
		t.Error("sub")
	}
	if mustV(Mul(NewInt(4), NewInt(3))).Int() != 12 {
		t.Error("mul")
	}
	if mustV(Div(NewInt(7), NewInt(2))).Int() != 3 {
		t.Error("integer division")
	}
	if mustV(Div(NewFloat(7), NewInt(2))).Float() != 3.5 {
		t.Error("float division")
	}
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("division by zero must error")
	}
	if !mustV(Add(Null(), NewInt(1))).IsNull() {
		t.Error("NULL propagates through arithmetic")
	}
	if mustV(Add(NewString("a"), NewString("b"))).Str() != "ab" {
		t.Error("string + concatenates")
	}
}

func TestCoerceKind(t *testing.T) {
	v, err := CoerceKind(NewString("42"), KindInt)
	if err != nil || v.Int() != 42 {
		t.Errorf("string->int coerce: %v %v", v, err)
	}
	v, err = CoerceKind(NewInt(2), KindFloat)
	if err != nil || v.Float() != 2.0 {
		t.Errorf("int->float coerce: %v %v", v, err)
	}
	v, err = CoerceKind(NewFloat(2.9), KindInt)
	if err != nil || v.Int() != 2 {
		t.Errorf("float->int coerce: %v %v", v, err)
	}
	if _, err := CoerceKind(NewString("xyz"), KindInt); err == nil {
		t.Error("bad string->int must error")
	}
	v, err = CoerceKind(NewString("2015-05-31 12:00:00"), KindTime)
	if err != nil || v.Time().Year() != 2015 {
		t.Errorf("string->time coerce: %v %v", v, err)
	}
	n, err := CoerceKind(Null(), KindInt)
	if err != nil || !n.IsNull() {
		t.Error("NULL passes through coercion")
	}
	v, err = CoerceKind(NewInt(123), KindString)
	if err != nil || v.Str() != "123" {
		t.Errorf("int->string coerce: %v %v", v, err)
	}
	v, err = CoerceKind(NewString("true"), KindBool)
	if err != nil || !v.Bool() {
		t.Errorf("string->bool coerce: %v %v", v, err)
	}
}

func TestEncodeKeyInjective(t *testing.T) {
	// Distinct composite keys must encode to distinct strings.
	keys := [][]Value{
		{NewInt(1), NewString("a")},
		{NewInt(1), NewString("b")},
		{NewString("1a")},
		{NewString("1"), NewString("a")},
		{NewInt(1)},
		{NewFloat(1)},
		{Null()},
		{NewBool(false), NewBool(true)},
		{},
	}
	seen := map[string]int{}
	for i, k := range keys {
		enc := EncodeKey(k)
		if j, dup := seen[enc]; dup {
			t.Errorf("keys %d and %d encode identically", i, j)
		}
		seen[enc] = i
	}
}

// Property: Compare is antisymmetric and consistent with Equal for ints.
func TestCompareProperty(t *testing.T) {
	prop := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		c1, c2 := Compare(va, vb), Compare(vb, va)
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == (a == b) && Equal(va, vb) == (a == b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: EncodeKey is injective for (int64, string) pairs.
func TestEncodeKeyProperty(t *testing.T) {
	prop := func(a1 int64, s1 string, a2 int64, s2 string) bool {
		k1 := EncodeKey([]Value{NewInt(a1), NewString(s1)})
		k2 := EncodeKey([]Value{NewInt(a2), NewString(s2)})
		return (k1 == k2) == (a1 == a2 && s1 == s2)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFormat(t *testing.T) {
	if Null().Format() != "NULL" {
		t.Error("NULL format")
	}
	if NewInt(-5).Format() != "-5" {
		t.Error("int format")
	}
	if NewBool(true).Format() != "true" {
		t.Error("bool format")
	}
	if NewFloat(1.25).Format() != "1.25" {
		t.Error("float format")
	}
}

// TestValueIs32Bytes guards the layout: a string header, one 8-byte word and
// the kind. Every row version, index key and scratch row is a []Value, so a
// field added here grows all of them.
func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

func TestFloatBitsRoundTrip(t *testing.T) {
	for _, f := range []float64{
		math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0x7ff8dead00000001),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 0.1,
	} {
		v := NewFloat(f)
		if v.Kind() != KindFloat || math.Float64bits(v.Float()) != math.Float64bits(f) {
			t.Errorf("NewFloat(%v) bits %#x, want %#x", f, math.Float64bits(v.Float()), math.Float64bits(f))
		}
		if g, ok := v.Go().(float64); !ok || math.Float64bits(g) != math.Float64bits(f) {
			t.Errorf("NewFloat(%v).Go() = %v", f, v.Go())
		}
	}
}

func TestIntAndBoolRoundTrip(t *testing.T) {
	for _, n := range []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64} {
		if v := NewInt(n); v.Int() != n || v.Go() != any(n) {
			t.Errorf("NewInt(%d) round trip: %v", n, v.Go())
		}
	}
	for _, b := range []bool{false, true} {
		v := NewBool(b)
		if v.Bool() != b || v.Go() != any(b) || (v.Int() == 1) != b {
			t.Errorf("NewBool(%v) round trip: Bool %v Int %d Go %v", b, v.Bool(), v.Int(), v.Go())
		}
	}
}

// TestTimeRoundTrip: a timestamp keeps its instant to the nanosecond, before
// 1970 too, and comes back in UTC with no monotonic reading; a time in
// another location is the same value as its UTC instant.
func TestTimeRoundTrip(t *testing.T) {
	denver := time.FixedZone("UTC-7", -7*3600)
	for _, ts := range []time.Time{
		time.Date(1969, 7, 20, 20, 17, 40, 123456789, time.UTC),
		time.Date(1900, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(2015, 5, 31, 23, 59, 59, 999999999, denver),
		time.Unix(0, 0),
		time.Now(),
	} {
		v := NewTime(ts)
		got := v.Time()
		if !got.Equal(ts) || got.Location() != time.UTC || got != got.Round(0) {
			t.Errorf("NewTime(%v).Time() = %v (%v)", ts, got, got.Location())
		}
		if g, ok := v.Go().(time.Time); !ok || g != got {
			t.Errorf("NewTime(%v).Go() = %v", ts, v.Go())
		}
		utc := NewTime(ts.UTC())
		if Compare(v, utc) != 0 || !Equal(v, utc) || EncodeKey([]Value{v}) != EncodeKey([]Value{utc}) || v.Format() != utc.Format() {
			t.Errorf("NewTime(%v) differs from its UTC instant", ts)
		}
		if v.Int() != ts.UnixNano() {
			t.Errorf("NewTime(%v).Int() = %d, want %d", ts, v.Int(), ts.UnixNano())
		}
	}
	if got := NewTime(time.Date(1969, 7, 20, 13, 17, 40, 123456789, denver)).Format(); got != "1969-07-20 20:17:40.123" {
		t.Errorf("Format of a non-UTC time = %q, want its UTC text", got)
	}
}

// TestMixedKindAnswersPinned pins Compare, Equal, EncodeKey and Format on
// mixed-kind inputs, quirks included (NaN compares equal to any number, and
// Top equals Top): hash-index keys and sort orders built by earlier runs,
// and the benchmarks' invariant checks, depend on these exact answers.
func TestMixedKindAnswersPinned(t *testing.T) {
	moon := time.Date(1969, 7, 20, 20, 17, 40, 123456789, time.UTC)
	denver := time.FixedZone("UTC-7", -7*3600)
	vals := []struct {
		v           Value
		key, format string
	}{
		{Null(), "00", "NULL"},
		{Top(), "", "?"},
		{NewInt(3), "010000000000000003", "3"},
		{NewInt(-1), "01ffffffffffffffff", "-1"},
		{NewInt(math.MaxInt64), "017fffffffffffffff", "9223372036854775807"},
		{NewInt(math.MinInt64), "018000000000000000", "-9223372036854775808"},
		{NewFloat(3), "024008000000000000", "3"},
		{NewFloat(3.5), "02400c000000000000", "3.5"},
		{NewFloat(math.Copysign(0, -1)), "028000000000000000", "-0"},
		{NewFloat(math.NaN()), "027ff8000000000001", "NaN"},
		{NewFloat(math.Inf(1)), "027ff0000000000000", "+Inf"},
		{NewFloat(math.Inf(-1)), "02fff0000000000000", "-Inf"},
		{NewFloat(math.MaxFloat64), "027fefffffffffffff", "1.7976931348623157e+308"},
		{NewBool(true), "010000000000000001", "true"},
		{NewBool(false), "010000000000000000", "false"},
		{NewString("3"), "03000000000000000133", "3"},
		{NewString(" 3.5 "), "03000000000000000520332e3520", " 3.5 "},
		{NewString("abc"), "030000000000000003616263", "abc"},
		{NewString("1969-07-20 20:17:40.123"), "030000000000000017313936392d30372d32302032303a31373a34302e313233", "1969-07-20 20:17:40.123"},
		{NewTime(moon), "04ffcd9cb0fac9b515", "1969-07-20 20:17:40.123"},
		{NewTime(moon.In(denver)), "04ffcd9cb0fac9b515", "1969-07-20 20:17:40.123"},
		{NewTime(time.Unix(0, 3)), "040000000000000003", "1970-01-01 00:00:00.000"},
		{NewInt(moon.UnixNano()), "01ffcd9cb0fac9b515", "-14182939876543211"},
	}
	for i, c := range vals {
		if got := hex.EncodeToString([]byte(EncodeKey([]Value{c.v}))); got != c.key {
			t.Errorf("value %d: EncodeKey = %s, want %s", i, got, c.key)
		}
		if got := c.v.Format(); got != c.format {
			t.Errorf("value %d: Format = %q, want %q", i, got, c.format)
		}
	}
	pairs := []struct {
		a, b, cmp int
		eq        bool
	}{
		{0, 0, 0, false}, {0, 2, -1, false}, {0, 19, -1, false}, // NULL
		{1, 1, 0, true}, {0, 1, -1, false}, {1, 17, 1, false}, // Top
		{2, 6, 0, true}, {2, 7, -1, false}, {6, 7, -1, false}, // int vs float
		{8, 14, 0, true}, {9, 9, 0, true}, {2, 9, 0, true}, // -0, NaN
		{4, 12, -1, false}, {5, 11, 1, false}, {10, 12, 1, false},
		{2, 13, 1, false}, {3, 13, -1, false}, {13, 14, 1, false}, // bool
		{2, 15, 0, true}, {6, 15, 0, true}, {7, 16, 0, true}, // numeric string vs number
		{2, 17, -1, false}, {15, 16, 1, false},
		{18, 19, 0, true}, {17, 19, 1, false}, // string vs time: by text
		{19, 20, 0, true}, {19, 21, -1, false}, // time vs time
		{19, 22, 0, true}, {2, 21, 0, true}, {7, 21, 0, true}, // time vs number
	}
	for _, p := range pairs {
		a, b := vals[p.a].v, vals[p.b].v
		if got := Compare(a, b); got != p.cmp {
			t.Errorf("Compare(%v, %v) = %d, want %d", a, b, got, p.cmp)
		}
		if got := Compare(b, a); got != -p.cmp {
			t.Errorf("Compare(%v, %v) = %d, want %d", b, a, got, -p.cmp)
		}
		if got := Equal(a, b); got != p.eq {
			t.Errorf("Equal(%v, %v) = %v, want %v", a, b, got, p.eq)
		}
	}
}
