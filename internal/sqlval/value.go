// Package sqlval defines the dynamically typed value system shared by the
// SQL parser, planner, executor, and storage layers of the embedded engine.
//
// A Value is a small tagged union. Values are compared with SQL semantics:
// NULL sorts before everything and never compares equal to anything under
// Equal (three-valued logic is handled by the executor); numeric kinds
// (integer and float) compare with each other after widening.
//
// Every stored row version, index key and executor scratch row is a
// []Value, so the layout is kept to 32 bytes: a string header, one 8-byte
// word and the kind. The word holds an int, a bool as 0/1, a float's
// IEEE-754 bits, or a timestamp's nanoseconds since the Unix epoch. Two
// limits follow from the word, and both match what the heap row codec and
// the cluster wire already stored:
//
//   - A timestamp is an instant, not a time.Time: Time returns it in UTC with
//     no monotonic clock reading, and times in different locations with the
//     same instant are the same value.
//   - A timestamp must lie in the int64 nanosecond range, years 1678 to 2262.
package sqlval

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported runtime kinds.
const (
	KindNull   Kind = iota
	KindInt         // 64-bit signed integer (SQL INT, BIGINT, SMALLINT, ...)
	KindFloat       // 64-bit float (SQL DOUBLE, FLOAT, DECIMAL, NUMERIC)
	KindString      // UTF-8 string (SQL VARCHAR, CHAR, TEXT)
	KindBool        // SQL BOOLEAN
	KindTime        // SQL TIMESTAMP / DATE

	// KindTop is an internal sentinel that sorts after every other value.
	// It never appears in stored rows; the executor uses it to build
	// inclusive upper bounds for prefix scans over composite index keys.
	KindTop Kind = 200
)

// Top returns the +infinity sentinel used in index-scan upper bounds.
func Top() Value { return Value{kind: KindTop} }

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value. The zero Value is NULL. i holds every
// non-string payload, decoded according to kind (see the package comment).
type Value struct {
	s    string
	i    int64
	kind Kind
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(v))} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// NewTime returns a timestamp value. Only the instant is kept (see the
// package comment for its range).
func NewTime(v time.Time) Value { return Value{kind: KindTime, i: v.UnixNano()} }

// FromGo converts a native Go value into a Value. Supported inputs are nil,
// all integer widths, float32/64, string, bool, time.Time, and Value itself.
func FromGo(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Null(), nil
	case Value:
		return x, nil
	case int:
		return NewInt(int64(x)), nil
	case int8:
		return NewInt(int64(x)), nil
	case int16:
		return NewInt(int64(x)), nil
	case int32:
		return NewInt(int64(x)), nil
	case int64:
		return NewInt(x), nil
	case uint:
		return NewInt(int64(x)), nil
	case uint32:
		return NewInt(int64(x)), nil
	case uint64:
		if x > math.MaxInt64 {
			return Value{}, fmt.Errorf("sqlval: uint64 %d overflows int64", x)
		}
		return NewInt(int64(x)), nil
	case float32:
		return NewFloat(float64(x)), nil
	case float64:
		return NewFloat(x), nil
	case string:
		return NewString(x), nil
	case bool:
		return NewBool(x), nil
	case time.Time:
		return NewTime(x), nil
	default:
		return Value{}, fmt.Errorf("sqlval: unsupported Go type %T", v)
	}
}

// MustFromGo is FromGo that panics on unsupported types; it is intended for
// benchmark control code that passes only supported parameter types.
func MustFromGo(v any) Value {
	val, err := FromGo(v)
	if err != nil {
		panic(err)
	}
	return val
}

// Kind reports the runtime kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the value as int64. Floats are truncated; booleans map to 0/1.
func (v Value) Int() int64 {
	switch v.kind {
	case KindInt, KindBool:
		return v.i
	case KindFloat:
		return int64(v.float())
	case KindString:
		n, _ := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		return n
	case KindTime:
		return v.i
	default:
		return 0
	}
}

// Float returns the value as float64.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.float()
	case KindInt, KindBool:
		return float64(v.i)
	case KindString:
		f, _ := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		return f
	default:
		return 0
	}
}

// Str returns the value as a string (its SQL text form for non-strings).
func (v Value) Str() string {
	if v.kind == KindString {
		return v.s
	}
	return v.Format()
}

// Bool returns the value as a boolean.
func (v Value) Bool() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.i != 0
	case KindFloat:
		return v.float() != 0
	default:
		return false
	}
}

// Time returns the value as a time.Time in UTC with no monotonic clock
// reading (zero time if not a timestamp).
func (v Value) Time() time.Time {
	if v.kind == KindTime {
		return time.Unix(0, v.i).UTC()
	}
	return time.Time{}
}

// float decodes the word of a KindFloat value.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// Go returns the value as a native Go value (nil, int64, float64, string,
// bool, or time.Time).
func (v Value) Go() any {
	switch v.kind {
	case KindNull:
		return nil
	case KindInt:
		return v.i
	case KindFloat:
		return v.float()
	case KindString:
		return v.s
	case KindBool:
		return v.i != 0
	case KindTime:
		return v.Time()
	default:
		return nil
	}
}

// Format renders the value as SQL literal-ish text (without quoting).
func (v Value) Format() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindTime:
		return v.Time().Format("2006-01-02 15:04:05.000")
	default:
		return "?"
	}
}

// String implements fmt.Stringer.
func (v Value) String() string { return v.Format() }

// numericKind reports whether k participates in numeric widening.
func numericKind(k Kind) bool { return k == KindInt || k == KindFloat || k == KindBool }

// Compare orders a before b (-1), equal (0), or after (+1). NULL sorts first.
// Numeric kinds are widened; comparing a number with a string compares the
// string's parsed numeric form (benchmarks store numeric-looking strings).
// Incomparable kinds fall back to comparing their text forms so that sorting
// is always total.
func Compare(a, b Value) int {
	if a.kind == KindTop || b.kind == KindTop {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindTop:
			return 1
		default:
			return -1
		}
	}
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.kind == b.kind {
		switch a.kind {
		case KindInt, KindBool, KindTime:
			return cmpInt(a.i, b.i)
		case KindFloat:
			return cmpFloat(a.float(), b.float())
		case KindString:
			return strings.Compare(a.s, b.s)
		}
	}
	if numericKind(a.kind) && numericKind(b.kind) {
		return cmpFloat(a.Float(), b.Float())
	}
	if a.kind == KindTime && numericKind(b.kind) {
		return cmpInt(a.i, b.Int())
	}
	if numericKind(a.kind) && b.kind == KindTime {
		return cmpInt(a.Int(), b.i)
	}
	// Mixed string/number: compare numerically when both parse, else by text.
	if a.kind == KindString && numericKind(b.kind) {
		if f, err := strconv.ParseFloat(strings.TrimSpace(a.s), 64); err == nil {
			return cmpFloat(f, b.Float())
		}
	}
	if numericKind(a.kind) && b.kind == KindString {
		if f, err := strconv.ParseFloat(strings.TrimSpace(b.s), 64); err == nil {
			return cmpFloat(a.Float(), f)
		}
	}
	return strings.Compare(a.Format(), b.Format())
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports SQL equality. NULL is never equal to anything, including
// NULL itself (use IsNull for that test).
func Equal(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return false
	}
	return Compare(a, b) == 0
}

// CompareRows orders two composite keys column by column.
func CompareRows(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmpInt(int64(len(a)), int64(len(b)))
}

// EncodeKey renders a composite key into a compact string usable as a Go map
// key. Encoding is injective per kind but not order-preserving; it is used
// for hash lookups only.
func EncodeKey(vals []Value) string {
	var b strings.Builder
	for _, v := range vals {
		switch v.kind {
		case KindNull:
			b.WriteByte(0x00)
		case KindInt, KindBool:
			b.WriteByte(0x01)
			writeUint64(&b, uint64(v.i))
		case KindFloat:
			b.WriteByte(0x02)
			writeUint64(&b, uint64(v.i))
		case KindString:
			b.WriteByte(0x03)
			writeUint64(&b, uint64(len(v.s)))
			b.WriteString(v.s)
		case KindTime:
			b.WriteByte(0x04)
			writeUint64(&b, uint64(v.i))
		}
	}
	return b.String()
}

func writeUint64(b *strings.Builder, v uint64) {
	var buf [8]byte
	for i := 7; i >= 0; i-- {
		buf[i] = byte(v)
		v >>= 8
	}
	b.Write(buf[:])
}

// Add returns a+b with numeric widening; string operands concatenate.
func Add(a, b Value) (Value, error) { return arith(a, b, "+") }

// Sub returns a-b with numeric widening.
func Sub(a, b Value) (Value, error) { return arith(a, b, "-") }

// Mul returns a*b with numeric widening.
func Mul(a, b Value) (Value, error) { return arith(a, b, "*") }

// Div returns a/b; integer division when both operands are integers.
func Div(a, b Value) (Value, error) { return arith(a, b, "/") }

func arith(a, b Value, op string) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if op == "+" && (a.kind == KindString || b.kind == KindString) {
		return NewString(a.Str() + b.Str()), nil
	}
	if !numericKind(a.kind) || !numericKind(b.kind) {
		return Value{}, fmt.Errorf("sqlval: cannot apply %q to %s and %s", op, a.kind, b.kind)
	}
	if a.kind == KindFloat || b.kind == KindFloat {
		x, y := a.Float(), b.Float()
		switch op {
		case "+":
			return NewFloat(x + y), nil
		case "-":
			return NewFloat(x - y), nil
		case "*":
			return NewFloat(x * y), nil
		case "/":
			if y == 0 {
				return Value{}, fmt.Errorf("sqlval: division by zero")
			}
			return NewFloat(x / y), nil
		}
	}
	x, y := a.Int(), b.Int()
	switch op {
	case "+":
		return NewInt(x + y), nil
	case "-":
		return NewInt(x - y), nil
	case "*":
		return NewInt(x * y), nil
	case "/":
		if y == 0 {
			return Value{}, fmt.Errorf("sqlval: division by zero")
		}
		return NewInt(x / y), nil
	}
	return Value{}, fmt.Errorf("sqlval: unknown operator %q", op)
}

// CoerceKind converts v to the target kind, used when storing into a typed
// column. NULL passes through unchanged.
func CoerceKind(v Value, k Kind) (Value, error) {
	if v.IsNull() || v.kind == k {
		return v, nil
	}
	switch k {
	case KindInt:
		switch v.kind {
		case KindFloat:
			return NewInt(int64(v.float())), nil
		case KindBool:
			return NewInt(v.i), nil
		case KindString:
			n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("sqlval: cannot coerce %q to INTEGER", v.s)
			}
			return NewInt(n), nil
		case KindTime:
			return NewInt(v.i), nil
		}
	case KindFloat:
		switch v.kind {
		case KindInt, KindBool:
			return NewFloat(float64(v.i)), nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return Value{}, fmt.Errorf("sqlval: cannot coerce %q to DOUBLE", v.s)
			}
			return NewFloat(f), nil
		}
	case KindString:
		return NewString(v.Format()), nil
	case KindBool:
		switch v.kind {
		case KindInt:
			return NewBool(v.i != 0), nil
		case KindFloat:
			return NewBool(v.float() != 0), nil
		case KindString:
			b, err := strconv.ParseBool(strings.ToLower(strings.TrimSpace(v.s)))
			if err != nil {
				return Value{}, fmt.Errorf("sqlval: cannot coerce %q to BOOLEAN", v.s)
			}
			return NewBool(b), nil
		}
	case KindTime:
		switch v.kind {
		case KindInt:
			return Value{kind: KindTime, i: v.i}, nil
		case KindString:
			for _, layout := range []string{"2006-01-02 15:04:05.000", "2006-01-02 15:04:05", "2006-01-02", time.RFC3339} {
				if t, err := time.Parse(layout, v.s); err == nil {
					return NewTime(t), nil
				}
			}
			return Value{}, fmt.Errorf("sqlval: cannot coerce %q to TIMESTAMP", v.s)
		}
	}
	return Value{}, fmt.Errorf("sqlval: cannot coerce %s to %s", v.kind, k)
}
