package tablefmt

import (
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tb := New("demo", "name", "value")
	tb.Add("alpha", "1")
	tb.Add("beta")
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns must align: "value" column starts at the same offset.
	hdr := lines[1]
	row := lines[3]
	if strings.Index(hdr, "value") != strings.Index(row, "1") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableAddfFormatsMixedTypes(t *testing.T) {
	tb := New("", "a", "b", "c")
	tb.Addf("x", 3.14159, 42)
	if got := tb.Rows[0][1]; got != "3.142" {
		t.Fatalf("float cell = %q", got)
	}
	if got := tb.Rows[0][2]; got != "42" {
		t.Fatalf("int cell = %q", got)
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := New("t", "a", "b")
	tb.Add(`has,comma`, `has"quote`)
	csv := tb.CSV()
	want := "a,b\n\"has,comma\",\"has\"\"quote\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestF(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.5",
		3.14159: "3.142",
		-2.5:    "-2.5",
		42.123:  "42.12",
		1234.56: "1234.6",
		10:      "10",
	}
	for v, want := range cases {
		if got := F(v); got != want {
			t.Fatalf("F(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(0.93); got != "0.93x" {
		t.Fatalf("Ratio = %q", got)
	}
	if got := Ratio(1.0); got != "1x" {
		t.Fatalf("Ratio = %q", got)
	}
}

// CSV renders the table as comma-separated values (cells containing
// commas or quotes are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
