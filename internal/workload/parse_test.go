package workload

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestParseExprWellFormed(t *testing.T) {
	out, ins, err := parseExpr(" O[m, n] += A[m,k] * B[k , n] ")
	if err != nil {
		t.Fatal(err)
	}
	if out.name != "O" || len(out.terms) != 2 {
		t.Fatalf("output = %+v", out)
	}
	if len(ins) != 2 || ins[0].name != "A" || ins[1].name != "B" {
		t.Fatalf("inputs = %+v", ins)
	}
	if got := ins[1].terms[0].indices[0]; got != "k" {
		t.Fatalf("B first index = %q", got)
	}
}

func TestParseExprHaloTerms(t *testing.T) {
	_, ins, err := parseExpr("O[n,x,y] += I[n, x+r, y+s] * W[r,s]")
	if err != nil {
		t.Fatal(err)
	}
	if got := ins[0].terms[1].indices; len(got) != 2 || got[0] != "x" || got[1] != "r" {
		t.Fatalf("halo term = %v", got)
	}
}

// posRe extracts the 1-based position every parse/compile error must carry.
var posRe = regexp.MustCompile(`pos (\d+):`)

// TestParseExprMalformed pins both the rejection and the reported position
// of a catalogue of malformed specs.
func TestParseExprMalformed(t *testing.T) {
	cases := []struct {
		expr string
		pos  int // expected 1-based error position
	}{
		{"", 1},                    // empty: expected a tensor name
		{"[m] += A[m]", 1},         // missing output name
		{"O += A[m]", 3},           // missing '['
		{"O[] += A[m]", 3},         // empty subscript
		{"O[m += A[m]", 6},         // unterminated subscript: '+' needs an index, '=' is not one
		{"O[m] = A[m]", 6},         // '=' instead of '+='
		{"O[m] += ", 9},            // missing inputs
		{"O[m] += A", 10},          // input missing subscript
		{"O[m] += A[m] * ", 16},    // dangling '*'
		{"O[m] += A[m] B[m]", 14},  // missing '*' between inputs
		{"O[m] += A[m,]", 13},      // trailing comma
		{"O[m] += A[m+]", 13},      // dangling '+'
		{"O[m] += A[1m]", 11},      // index starting with a digit
		{"O[m] += A[m]]", 13},      // trailing junk
		{"O[m] += A[m] extra", 14}, // trailing junk after a valid spec
		{"O[m n] += A[m,n]", 5},    // space-separated indices without a comma
	}
	for _, tc := range cases {
		_, _, err := parseExpr(tc.expr)
		if err == nil {
			t.Errorf("%q: accepted", tc.expr)
			continue
		}
		m := posRe.FindStringSubmatch(err.Error())
		if m == nil {
			t.Errorf("%q: error %q carries no position", tc.expr, err)
			continue
		}
		if got := fmt.Sprint(tc.pos); m[1] != got {
			t.Errorf("%q: error at pos %s, want %d (%v)", tc.expr, m[1], tc.pos, err)
		}
	}
}

// FuzzParseExpr drives the parser with arbitrary input: it must never
// panic, and every rejection must carry a positional diagnostic. Every
// expression Compile accepts yields tensors whose subscript terms cover
// exactly their relevance sets and whose footprint at the all-ones tile is
// one word.
func FuzzParseExpr(f *testing.F) {
	seeds := []string{
		"O[m,n] += A[m,k] * B[k,n]",
		"Outputs[N,K,X,Y] += Weights[K,C,R,S] * Inputs[N,C,X+R,Y+S]",
		"O[X] += F[R] * I[X+R]",
		"O[m] += A[m",
		"O[m] + = A[m]",
		"O[m,n += A[m]",
		"][ += *",
		"O[m] += A[m] * A[m]",
		"\tO [ m ] += A [ m ] ",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		out, ins, err := parseExpr(expr)
		if err != nil {
			if !posRe.MatchString(err.Error()) {
				t.Fatalf("%q: error without position: %v", expr, err)
			}
			return
		}
		// A successful parse must yield a structurally plausible result
		// whose rendering re-parses to the same shape.
		if out.name == "" || len(out.terms) == 0 || len(ins) == 0 {
			t.Fatalf("%q: degenerate parse %+v %+v", expr, out, ins)
		}
		render := func(ts []parsedTensor) string {
			var parts []string
			for _, pt := range ts {
				var axes []string
				for _, term := range pt.terms {
					axes = append(axes, strings.Join(term.indices, "+"))
				}
				parts = append(parts, pt.name+"["+strings.Join(axes, ",")+"]")
			}
			return strings.Join(parts, " * ")
		}
		canon := render([]parsedTensor{out}) + " += " + render(ins)
		out2, ins2, err := parseExpr(canon)
		if err != nil {
			t.Fatalf("%q: canonical form %q fails to re-parse: %v", expr, canon, err)
		}
		if render([]parsedTensor{out2})+" += "+render(ins2) != canon {
			t.Fatalf("%q: canonical form not a fixed point", expr)
		}

		algo, err := Compile(Spec{Expr: expr})
		if err != nil {
			return
		}
		ones := make([]int, algo.NumDims())
		for d := range ones {
			ones[d] = 1
		}
		for i := range algo.Tensors {
			tensor := &algo.Tensors[i]
			var covered []int
			for _, term := range tensor.Terms {
				covered = append(covered, term...)
			}
			slices.Sort(covered)
			if want := slices.Sorted(slices.Values(tensor.Dims)); !slices.Equal(covered, want) {
				t.Fatalf("%q: tensor %s terms %v cover %v, dims %v", expr, tensor.Name, tensor.Terms, covered, want)
			}
			if fp := tensor.Footprint(ones); fp != 1 {
				t.Fatalf("%q: tensor %s footprint %d at the all-ones tile, want 1", expr, tensor.Name, fp)
			}
		}
	})
}
