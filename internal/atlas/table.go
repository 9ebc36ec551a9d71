package atlas

import "hash/maphash"

// table finds a slot by the key it holds, by linear probing over slot
// numbers: a cell is 4 bytes and a table is at most 3/4 full, where a map
// would keep the string's header and the slot number in every cell.
type table struct {
	seed  maphash.Seed
	name  func(slot int32) string
	cells []int32 // a slot number + 1, or 0 for an empty cell
	n     int
}

// newTable returns a table that finds slots by name, with room for n.
func newTable(seed maphash.Seed, n int, name func(int32) string) table {
	size := 16
	for 3*size < 4*n {
		size *= 2
	}
	return table{seed: seed, name: name, cells: make([]int32, size)}
}

// home is the cell where the probe for name starts.
func (t *table) home(name string) int {
	return int(maphash.String(t.seed, name) & uint64(len(t.cells)-1))
}

// get returns the slot the table holds under name.
func (t *table) get(name string) (int32, bool) {
	mask := len(t.cells) - 1
	for i := t.home(name); t.cells[i] != 0; i = (i + 1) & mask {
		if s := t.cells[i] - 1; t.name(s) == name {
			return s, true
		}
	}
	return 0, false
}

// cell returns the cell that holds slot s.
func (t *table) cell(s int32) int {
	mask := len(t.cells) - 1
	i := t.home(t.name(s))
	for t.cells[i] != s+1 {
		i = (i + 1) & mask
	}
	return i
}

// put files slot s, whose name the table does not hold yet.
func (t *table) put(s int32) {
	if 4*(t.n+1) > 3*len(t.cells) {
		old := t.cells
		t.cells, t.n = make([]int32, 2*len(old)), 0
		for _, c := range old {
			if c != 0 {
				t.put(c - 1)
			}
		}
	}
	mask := len(t.cells) - 1
	i := t.home(t.name(s))
	for t.cells[i] != 0 {
		i = (i + 1) & mask
	}
	t.cells[i] = s + 1
	t.n++
}

// remove drops slot s, shifting back each later cell of its probe run
// whose home does not lie between the emptied cell and it.
func (t *table) remove(s int32) {
	mask := len(t.cells) - 1
	i := t.cell(s)
	for j := (i + 1) & mask; t.cells[j] != 0; j = (j + 1) & mask {
		if h := t.home(t.name(t.cells[j] - 1)); (j-h)&mask >= (j-i)&mask {
			t.cells[i] = t.cells[j]
			i = j
		}
	}
	t.cells[i] = 0
	t.n--
}
