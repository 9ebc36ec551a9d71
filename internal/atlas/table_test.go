package atlas

import (
	"hash/maphash"
	"math/rand"
	"strconv"
	"testing"
)

// TestTableMatchesMap drives a table through random puts, replaces and
// removes, growing it from its smallest size, and checks every name
// against a map after each step; removal's backward shift must keep every
// probe run intact.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var names []string // the name of each slot
	tb := newTable(maphash.MakeSeed(), 0, func(s int32) string { return names[s] })
	want := map[string]int32{}
	for step := range 4000 {
		name := strconv.Itoa(rng.Intn(300))
		cur, ok := want[name]
		switch {
		case !ok:
			names = append(names, name)
			s := int32(len(names) - 1)
			tb.put(s)
			want[name] = s
		case rng.Intn(2) == 0:
			names = append(names, name)
			s := int32(len(names) - 1)
			tb.replace(cur, s)
			want[name] = s
		default:
			tb.remove(cur)
			delete(want, name)
		}
		if tb.n != len(want) {
			t.Fatalf("step %d: table holds %d, want %d", step, tb.n, len(want))
		}
		for i := range 300 {
			name := strconv.Itoa(i)
			s, ok := tb.get(name)
			if ws, wok := want[name]; ok != wok || (ok && s != ws) {
				t.Fatalf("step %d: get(%s) = %d, %v; want %d, %v", step, name, s, ok, ws, wok)
			}
		}
	}
}
