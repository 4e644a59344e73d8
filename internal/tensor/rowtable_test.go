package tensor

import (
	"math/rand"
	"slices"
	"testing"
)

// rowRef is the map-of-row-slices the table replaced, plus the
// first-touch order a map does not keep.
type rowRef struct {
	rows  map[int32][]float32
	order []int32
}

func (r *rowRef) add(id int32, width int) ([]float32, bool) {
	if row, ok := r.rows[id]; ok {
		return row, false
	}
	row := make([]float32, width)
	r.rows[id] = row
	r.order = append(r.order, id)
	return row, true
}

func (r *rowRef) truncate(n int) {
	for _, id := range r.order[n:] {
		delete(r.rows, id)
	}
	r.order = r.order[:n]
}

// checkRowTable compares every observable of t against ref, and probes
// a few absent ids.
func checkRowTable(t *testing.T, tb *RowTable, ref *rowRef, absent []int32) {
	t.Helper()
	if tb.Len() != len(ref.order) || !slices.Equal(tb.IDs(), ref.order) {
		t.Fatalf("ids %v (len %d), want %v", tb.IDs(), tb.Len(), ref.order)
	}
	for i, id := range ref.order {
		if !slices.Equal(tb.Row(id), ref.rows[id]) || !slices.Equal(tb.At(i), ref.rows[id]) {
			t.Fatalf("id %d (slot %d): Row %v At %v, want %v", id, i, tb.Row(id), tb.At(i), ref.rows[id])
		}
	}
	for _, id := range absent {
		if _, ok := ref.rows[id]; !ok && tb.Row(id) != nil {
			t.Fatalf("absent id %d has row %v", id, tb.Row(id))
		}
	}
}

func TestRowTableScripted(t *testing.T) {
	type op struct {
		kind string // add, trunc, reset
		id   int32
		n    int
	}
	cases := []struct {
		name  string
		width int
		ops   []op
	}{
		{"id zero and repeats", 3, []op{{kind: "add", id: 0}, {kind: "add", id: 0}, {kind: "add", id: 2}, {kind: "add", id: 0}}},
		{"large gaps", 2, []op{{kind: "add", id: 1 << 20}, {kind: "add", id: 7}, {kind: "add", id: 1<<20 - 1}, {kind: "add", id: 1 << 22}}},
		{"truncate then re-add", 4, []op{
			{kind: "add", id: 9}, {kind: "add", id: 4}, {kind: "add", id: 11}, {kind: "trunc", n: 1},
			{kind: "add", id: 11}, {kind: "add", id: 4}, {kind: "trunc", n: 3}, {kind: "trunc", n: 0}, {kind: "add", id: 4},
		}},
		{"reset keeps nothing visible", 1, []op{
			{kind: "add", id: 5}, {kind: "add", id: 6}, {kind: "reset"}, {kind: "add", id: 6}, {kind: "reset"}, {kind: "reset"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb, ref := NewRowTable(tc.width), &rowRef{rows: map[int32][]float32{}}
			if tb.Width() != tc.width {
				t.Fatalf("width %d, want %d", tb.Width(), tc.width)
			}
			stamp := float32(1)
			for step, o := range tc.ops {
				switch o.kind {
				case "add":
					got, fresh := tb.Add(o.id)
					want, wantFresh := ref.add(o.id, tc.width)
					if fresh != wantFresh || !slices.Equal(got, want) {
						t.Fatalf("step %d: Add(%d) = %v fresh %v, want %v fresh %v", step, o.id, got, fresh, want, wantFresh)
					}
					for j := range got {
						got[j] += stamp
						want[j] += stamp
						stamp++
					}
				case "trunc":
					tb.Truncate(o.n)
					ref.truncate(o.n)
				case "reset":
					tb.Reset()
					ref.truncate(0)
				}
				checkRowTable(t, tb, ref, []int32{-1, 0, 1, 3, 1 << 21, 1<<31 - 1})
			}
		})
	}
}

// Randomised interleavings against the map reference: accumulation into
// rows across slab growth, rollbacks to arbitrary marks, full resets.
func TestRowTableMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		width := 1 + rng.Intn(9)
		tb, ref := NewRowTable(width), &rowRef{rows: map[int32][]float32{}}
		// A small dense range forces repeats; a sparse one forces index
		// growth with large gaps.
		pick := func() int32 {
			if rng.Intn(4) == 0 {
				return int32(rng.Intn(1 << 18))
			}
			return int32(rng.Intn(200))
		}
		for step := 0; step < 4000; step++ {
			switch r := rng.Intn(100); {
			case r < 90:
				id := pick()
				got, fresh := tb.Add(id)
				want, wantFresh := ref.add(id, width)
				if fresh != wantFresh {
					t.Fatalf("seed %d step %d: Add(%d) fresh %v, want %v", seed, step, id, fresh, wantFresh)
				}
				if fresh {
					for j, x := range got {
						if x != 0 {
							t.Fatalf("seed %d step %d: fresh row of %d not zeroed at %d: %v", seed, step, id, j, x)
						}
					}
				}
				for j := range got {
					x := rng.Float32()
					got[j] += x
					want[j] += x
				}
			case r < 97:
				n := rng.Intn(tb.Len() + 1)
				tb.Truncate(n)
				ref.truncate(n)
			default:
				tb.Reset()
				ref.truncate(0)
			}
			if step%97 == 0 {
				checkRowTable(t, tb, ref, []int32{pick(), pick(), pick()})
			}
		}
		checkRowTable(t, tb, ref, nil)
	}
}

// A table that is reset and refilled with the same ids — the per-epoch
// accumulator's life — reuses its slab and index.
func TestRowTableResetRefillAllocatesNothing(t *testing.T) {
	tb := NewRowTable(16)
	ids := make([]int32, 500)
	for i := range ids {
		ids[i] = int32((i * 7919) % 100_000)
	}
	fill := func() {
		for _, id := range ids {
			row, _ := tb.Add(id)
			row[0]++
		}
	}
	fill()
	if n := testing.AllocsPerRun(20, func() {
		tb.Reset()
		fill()
	}); n != 0 {
		t.Fatalf("reset + refill allocates %v objects, want 0", n)
	}
	if tb.Len() != len(ids) || tb.Row(ids[3])[0] != 1 {
		t.Fatalf("refilled table holds %d rows, row %v", tb.Len(), tb.Row(ids[3]))
	}
}

// Reset empties the table, keeping all storage for the next fill.
func (t *RowTable) Reset() { t.Truncate(0) }
