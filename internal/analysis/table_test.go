package analysis

import (
	"encoding/csv"
	"strings"
	"testing"

	"ciflow/internal/params"
)

// tablesOf runs one registry experiment at its default benchmark on a
// fresh runner.
func tablesOf(t *testing.T, name string) []*Table {
	t.Helper()
	for _, e := range Experiments {
		if e.Name == name {
			tables, err := e.Run(NewRunner(), e.Bench)
			if err != nil {
				t.Fatal(err)
			}
			return tables
		}
	}
	t.Fatalf("no experiment %q in the registry", name)
	return nil
}

func textOf(t *testing.T, name string) string {
	t.Helper()
	var sb strings.Builder
	for _, tb := range tablesOf(t, name) {
		sb.WriteString(tb.Text())
	}
	return sb.String()
}

func csvLines(t *testing.T, name string) []string {
	t.Helper()
	return strings.Split(strings.TrimSpace(tablesOf(t, name)[0].CSV()), "\n")
}

// TestTableRenderings pins the writer's rules on a table that uses all
// of them: heads padded like cells and overflowing when longer, a
// left-aligned column, a verb with a unit, a fraction shown as a
// percentage, a missing value, a multi-line title, notes in text only.
func TestTableRenderings(t *testing.T) {
	tb := &Table{
		Title: "T\n(sub)",
		Cols:  []Col{{"name", "name", -5, "%s"}, {"   wide", "bw", 6, "%.1fG"}, {"idle", "idle", 5, "%.0f%%"}, {"n", "n", 3, "%d"}},
		Notes: []string{"a note"},
	}
	tb.Add("a,b", 12.34, Frac(0.256), 7)
	tb.Add("c", nil, Frac(1), int64(8))
	wantText := "T\n(sub)\n" +
		"name     wide  idle   n\n" +
		"a,b    12.3G   26%   7\n" +
		"c        n/a  100%   8\n" +
		"a note\n"
	if got := tb.Text(); got != wantText {
		t.Errorf("Text:\n%q\nwant\n%q", got, wantText)
	}
	wantCSV := "name,bw,idle,n\n\"a,b\",12.3400,0.2560,7\nc,,1.0000,8\n"
	if got := tb.CSV(); got != wantCSV {
		t.Errorf("CSV:\n%q\nwant\n%q", got, wantCSV)
	}
	headless := &Table{Cols: []Col{{"", "x", 0, "x=%d"}}}
	headless.Add(1)
	if got := headless.Text(); got != "x=1\n" {
		t.Errorf("headless, untitled table printed %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("a row one cell short was accepted")
		}
	}()
	tb.Add("short")
}

// TestRegistryTables is the property every experiment must keep: its
// text and CSV forms carry the same data rows, the CSV parses with one
// field per column under unique, non-empty keys, and names are unique.
func TestRegistryTables(t *testing.T) {
	names := map[string]bool{}
	for _, e := range Experiments {
		if e.Name == "" || e.Desc == "" || names[e.Name] {
			t.Errorf("registry entry %q: empty or repeated name, or no summary", e.Name)
		}
		names[e.Name] = true
		tables := tablesOf(t, e.Name)
		if len(tables) == 0 {
			t.Errorf("%s produced no table", e.Name)
		}
		for _, tb := range tables {
			recs, err := csv.NewReader(strings.NewReader(tb.CSV())).ReadAll()
			if err != nil {
				t.Errorf("%s: CSV does not parse: %v", e.Name, err)
				continue
			}
			if len(recs) != 1+len(tb.Rows) || len(tb.Rows) == 0 {
				t.Errorf("%s: %d CSV records for %d rows", e.Name, len(recs), len(tb.Rows))
			}
			keys := map[string]bool{}
			for _, k := range recs[0] {
				if k == "" || keys[k] {
					t.Errorf("%s: CSV key %q empty or repeated in %v", e.Name, k, recs[0])
				}
				keys[k] = true
			}
			// Text lines: the title's, one of heads if any column has
			// one, one per row (more where a verb breaks the line, as
			// area's does), the notes.
			want, perRow := len(tb.Notes), 1
			if tb.Title != "" {
				want += 1 + strings.Count(tb.Title, "\n")
			}
			headed := false
			for _, c := range tb.Cols {
				headed = headed || c.Head != ""
				perRow += strings.Count(c.Verb, "\n")
			}
			if headed {
				want++
			}
			want += perRow * len(tb.Rows)
			if got := strings.Count(tb.Text(), "\n"); got != want {
				t.Errorf("%s: text has %d lines, want %d for %d rows:\n%s", e.Name, got, want, len(tb.Rows), tb.Text())
			}
		}
	}
	if len(names) != 15 {
		t.Errorf("%d experiments in the registry, the evaluation has 15", len(names))
	}
}

func TestWriteSweepCSV(t *testing.T) {
	lines := csvLines(t, "fig4")
	if len(lines) != 1+len(ExtBandwidthsGBs) {
		t.Fatalf("want header + %d rows, got %d lines", len(ExtBandwidthsGBs), len(lines))
	}
	if !strings.HasPrefix(lines[0], "bw_gbs,mp_ms") {
		t.Fatalf("bad header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "8.0000,") {
		t.Fatalf("bad first row %q", lines[1])
	}
}

func TestWriteStreamCSV(t *testing.T) {
	if lines := csvLines(t, "fig6"); !strings.Contains(lines[0], "oc_onchip_ms") {
		t.Fatal("missing column")
	}
}

func TestWriteTableCSVs(t *testing.T) {
	if got := len(csvLines(t, "table2")); got != 6 {
		t.Fatalf("table II: want 6 lines, got %d", got)
	}
	if !strings.Contains(strings.Join(csvLines(t, "table4"), "\n"), "ARK") {
		t.Fatal("table IV missing ARK row")
	}
}

// TestWriteMemoryCSV: a size a dataflow cannot be scheduled at is an
// empty field and n/a in text — never a sentinel number.
func TestWriteMemoryCSV(t *testing.T) {
	tables, err := memory(nil, params.BTS1)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(tables[0].CSV()), "\n")
	if len(lines) != 9 {
		t.Fatalf("want header + 8 rows, got %d", len(lines))
	}
	if lines[1] != "8,,,,,," {
		t.Fatalf("8 MiB fits no dataflow of BTS1, got row %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "32,392.0000,") {
		t.Fatalf("bad row %q", lines[3])
	}
	if text := tables[0].Text(); !strings.Contains(text, "n/a") || strings.Contains(text+tables[0].CSV(), "-1") {
		t.Fatalf("unschedulable sizes must read n/a, and no -1 anywhere:\n%s", text)
	}
}
