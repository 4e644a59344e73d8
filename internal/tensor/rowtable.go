package tensor

import (
	"fmt"
	"slices"
)

// RowTable maps non-negative int32 ids to fixed-width float32 rows. All
// rows live in one slab in first-touch order, and the id index is a
// dense []int32 grown to the largest id seen, so a lookup is two slice
// reads and a table that is emptied and refilled with a similar id set
// allocates nothing after its first fill: Reset and Truncate keep every
// byte of storage.
//
// A RowTable is not safe for concurrent use; callers that share one
// guard it with their own lock.
type RowTable struct {
	width int
	ids   []int32   // slot → id, in first-touch order
	slab  []float32 // slot i's row is slab[i*width : (i+1)*width]
	slot  []int32   // id → slot+1, 0 when absent
}

// NewRowTable returns an empty table of width-wide rows.
func NewRowTable(width int) *RowTable {
	if width < 1 {
		panic(fmt.Sprintf("tensor: row table width %d", width))
	}
	return &RowTable{width: width}
}

// Width returns the row width.
func (t *RowTable) Width() int { return t.width }

// Len returns the number of rows held.
func (t *RowTable) Len() int { return len(t.ids) }

// IDs returns the held ids in first-touch order. The slice aliases the
// table's storage: it is valid until the next Add, Truncate or Reset
// and must not be modified.
func (t *RowTable) IDs() []int32 { return t.ids }

// At returns the row in slot i (the i-th id of IDs), aliasing the slab.
func (t *RowTable) At(i int) []float32 {
	return t.slab[i*t.width : (i+1)*t.width : (i+1)*t.width]
}

// Row returns id's row, aliasing the slab, or nil when id is absent.
func (t *RowTable) Row(id int32) []float32 {
	if id < 0 || int(id) >= len(t.slot) || t.slot[id] == 0 {
		return nil
	}
	return t.At(int(t.slot[id]) - 1)
}

// Add returns id's row, appending a zeroed one (fresh == true) when id
// is absent. Appending may move the slab: rows returned earlier keep
// their contents but stop aliasing the table, so callers re-read rows
// after an Add instead of holding them across it.
func (t *RowTable) Add(id int32) (row []float32, fresh bool) {
	if row := t.Row(id); row != nil {
		return row, false
	}
	if int(id) >= len(t.slot) {
		t.slot = append(t.slot, make([]int32, int(id)+1-len(t.slot))...)
	}
	t.ids = append(t.ids, id)
	t.slot[id] = int32(len(t.ids))
	t.slab = slices.Grow(t.slab, t.width)[:len(t.slab)+t.width]
	row = t.At(len(t.ids) - 1)
	clear(row) // storage kept across a Truncate holds the dropped rows
	return row, true
}

// Truncate drops every row added after the first n, restoring the table
// to the state it had when Len() was n. Storage is kept.
func (t *RowTable) Truncate(n int) {
	for _, id := range t.ids[n:] {
		t.slot[id] = 0
	}
	t.ids = t.ids[:n]
	t.slab = t.slab[:n*t.width]
}
