package analysis

import (
	"encoding/csv"
	"fmt"
	"slices"
	"strings"
)

// Col declares one column once: its ASCII head, its CSV key, the width
// head and cells are padded to (negative: left-aligned) and the verb a
// cell prints under. A verb may carry literal text — a unit, a sign.
type Col struct {
	Head, Key string
	Width     int
	Verb      string
}

// Frac is a cell holding a fraction that text shows as a percentage:
// its verb prints 100× the value, the CSV keeps the fraction.
type Frac float64

// Table is what every experiment produces: a title, declared columns,
// rows of values (string, int, int64, float64, Frac or bool; nil where
// there is no value) and trailing notes. Text and CSV are its two
// renderings.
type Table struct {
	Title string // may span lines; empty for none
	Cols  []Col
	Rows  [][]any
	Notes []string // text only, one line each
}

// Add appends one row, a cell per column.
func (t *Table) Add(cells ...any) {
	if len(cells) != len(t.Cols) {
		panic(fmt.Sprintf("analysis: %d cells for the %d columns of %q", len(cells), len(t.Cols), t.Title))
	}
	t.Rows = append(t.Rows, cells)
}

// tabulate is the common shape of an experiment: the rows of a compute
// function, or its error, and a table to lay them out in, one table
// row each.
func tabulate[R any](rows []R, err error, t *Table, cells func(R) []any) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Add(cells(r)...)
	}
	return []*Table{t}, nil
}

// Text renders the table as the CLI prints it: title, the row of
// column heads (omitted when no column has one), the rows, the notes.
// A missing value reads n/a.
func (t *Table) Text() string {
	var sb strings.Builder
	line := func(cell func(int, Col) string) {
		for i, c := range t.Cols {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%*s", c.Width, cell(i, c))
		}
		sb.WriteByte('\n')
	}
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	if slices.ContainsFunc(t.Cols, func(c Col) bool { return c.Head != "" }) {
		line(func(_ int, c Col) string { return c.Head })
	}
	for _, row := range t.Rows {
		line(func(i int, c Col) string {
			switch v := row[i].(type) {
			case nil:
				return "n/a"
			case Frac:
				return fmt.Sprintf(c.Verb, 100*float64(v))
			}
			return fmt.Sprintf(c.Verb, row[i])
		})
	}
	for _, n := range t.Notes {
		sb.WriteString(n + "\n")
	}
	return sb.String()
}

// CSV renders the table for a plotting script: the column keys, then
// one record per row — floats to four decimals, everything else as
// fmt.Sprint prints it, a missing value as an empty field. Title and
// notes are not data and are left out.
func (t *Table) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	rec := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		rec[i] = c.Key
	}
	w.Write(rec)
	for _, row := range t.Rows {
		for i, v := range row {
			switch v := v.(type) {
			case nil:
				rec[i] = ""
			case float64, Frac:
				rec[i] = fmt.Sprintf("%.4f", v)
			default:
				rec[i] = fmt.Sprint(v)
			}
		}
		w.Write(rec)
	}
	w.Flush() // into a strings.Builder: cannot fail
	return sb.String()
}
