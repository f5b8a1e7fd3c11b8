package canon

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzAppendFloat holds encoding/json as AppendFloat's oracle: the same
// bytes for every finite float64, and Reader.Float reading them back
// to the same bits.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.999999999999999e-7,
		1e20, 1e21, 123456789012345678901, 5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -1e-300, 1.5e300} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendFloat([]byte("x"), v)
		if string(got[1:]) != string(want) || got[0] != 'x' {
			t.Fatalf("AppendFloat(%v) = %q, json.Marshal = %q", v, got[1:], want)
		}
		r := NewReader(want)
		back := r.Float()
		if err := r.End(); err != nil || math.Float64bits(back) != bits {
			t.Fatalf("Reader.Float(%q) = %v (%v), want %v", want, back, err, v)
		}
	})
}

// TestReader drives the Reader through accepted and refused inputs. A
// refusal names the byte offset where the read stopped, and sticks.
func TestReader(t *testing.T) {
	type step func(r *Reader) any
	lit := func(s string) step { return func(r *Reader) any { r.Lit(s); return nil } }
	intr := func(r *Reader) any { return r.Int() }
	nonzero := func(r *Reader) any { return r.Nonzero() }
	float := func(r *Reader) any { return r.Float() }
	str := func(r *Reader) any { return r.Str() }
	cases := []struct {
		name, in string
		steps    []step
		want     []any  // each step's result, when the input is accepted
		wantErr  string // the error's text, when it is refused
	}{
		{"int", `{"n":-42}`, []step{lit(`{"n":`), intr, lit("}")}, []any{nil, -42, nil}, ""},
		{"int zero", `0`, []step{intr}, []any{0}, ""},
		{"int64 bounds", `9223372036854775807,-9223372036854775808`,
			[]step{intr, lit(","), intr}, []any{math.MaxInt64, nil, math.MinInt64}, ""},
		{"float", `[1.5,-0,1e+21,1e-7]`, []step{lit("["), float, lit(","), float, lit(","), float, lit(","), float, lit("]")},
			[]any{nil, 1.5, nil, math.Copysign(0, -1), nil, 1e21, nil, 1e-7, nil}, ""},
		{"string", `"ab c"`, []step{str}, []any{"ab c"}, ""},

		{"leading zero", `{"n":01}`, []step{lit(`{"n":`), intr}, nil, "malformed at byte 5: want a canonical integer"},
		{"double zero", `00`, []step{intr}, nil, "malformed at byte 0: want a canonical integer"},
		{"negative leading zero", `-01`, []step{intr}, nil, "malformed at byte 0: want a canonical integer"},
		{"minus zero int", `[-0]`, []step{lit("["), intr}, nil, "malformed at byte 1: want a canonical integer"},
		{"plus sign", `+1`, []step{intr}, nil, "malformed at byte 0: want a canonical integer"},
		{"lone minus", `-`, []step{intr}, nil, "malformed at byte 0: want a canonical integer"},
		{"int overflow", `9223372036854775808`, []step{intr}, nil, "malformed at byte 0: want a canonical integer"},
		{"int underflow", `-9223372036854775809`, []step{intr}, nil, "malformed at byte 0: want a canonical integer"},
		{"twenty digits", `12345678901234567890`, []step{intr}, nil, "malformed at byte 0: want a canonical integer"},
		{"zero omitempty", `{"k":0}`, []step{lit(`{"k":`), nonzero}, nil,
			"malformed at byte 6: want a nonzero integer (a zero omitempty field is left out)"},
		{"float trailing zero", `1.0`, []step{float}, nil, "malformed at byte 0: want a canonical float"},
		{"float padded exponent", `1e-07`, []step{float}, nil, "malformed at byte 0: want a canonical float"},
		{"float capital exponent", `1E+21`, []step{float}, nil, "malformed at byte 0: want a canonical float"},
		{"float out of range", `1e999`, []step{float}, nil, "malformed at byte 0: want a canonical float"},
		{"float empty", `,`, []step{float}, nil, "malformed at byte 0: want a canonical float"},
		{"truncated literal", `{"n"`, []step{lit(`{"n":`)}, nil, `malformed at byte 0: want "{\"n\":"`},
		{"truncated int", `{"n":`, []step{lit(`{"n":`), intr}, nil, "malformed at byte 5: want a canonical integer"},
		{"truncated string", `{"s":"ab`, []step{lit(`{"s":`), str}, nil, "malformed at byte 5: want a closing quote"},
		{"escaped string", `"a\"b"`, []step{str}, nil, "malformed at byte 2: want a string of printable ASCII that needs no escaping"},
		{"html in string", `"a<b"`, []step{str}, nil, "malformed at byte 2: want a string of printable ASCII that needs no escaping"},
		{"not a string", `1`, []step{str}, nil, "malformed at byte 0: want a string"},
		{"whitespace", `{ "n":1}`, []step{lit(`{"n":`)}, nil, `malformed at byte 0: want "{\"n\":"`},
		{"trailing bytes", `1 `, []step{intr}, nil, "malformed at byte 1: want the end of the input"},
		{"first error sticks", `x1`, []step{lit("y"), intr, lit("x")}, nil, `malformed at byte 0: want "y"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader([]byte(tc.in))
			var got []any
			for i, s := range tc.steps {
				v := s(&r)
				// A refused read, and every read after it, returns a
				// zero value.
				if r.Err() != nil && v != nil && v != 0 && v != 0.0 && v != "" {
					t.Fatalf("step %d returned %v after a refusal, want a zero value", i, v)
				}
				got = append(got, v)
			}
			err := r.End()
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("error %v, want %q", err, tc.wantErr)
				}
				if r.Rest() != nil {
					t.Fatalf("Rest after a refusal is %q, want nil", r.Rest())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range tc.want {
				w, g := tc.want[i], got[i]
				if wf, ok := w.(float64); ok {
					if gf, _ := g.(float64); math.Float64bits(gf) != math.Float64bits(wf) {
						t.Fatalf("step %d read %v, want %v", i, g, w)
					}
				} else if g != w {
					t.Fatalf("step %d read %v, want %v", i, g, w)
				}
			}
		})
	}
}

// TestOpt checks that Opt consumes only a match and never fails.
func TestOpt(t *testing.T) {
	r := NewReader([]byte(`,"k":1`))
	if r.Opt(`,"x":`) {
		t.Fatal(`Opt matched ,"x":`)
	}
	if !r.Opt(`,"k":`) || r.Int() != 1 || r.End() != nil {
		t.Fatalf("Opt then Int: %v", r.Err())
	}
	if len(r.Rest()) != 0 {
		t.Fatalf("Rest %q after the whole input", r.Rest())
	}
}
