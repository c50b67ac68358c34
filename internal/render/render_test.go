package render

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sample builds the table the golden files snapshot: mixed alignments,
// every stock formatter, characters every backend must escape, and a
// NaN.
func sample() *Table {
	t := New("demo — grid cell summary",
		Column{Header: "driver"},
		Column{Header: "mean", Align: Right, Format: Float(2)},
		Column{Header: "ber", Align: Right, Format: Sci(1)},
		Column{Header: "n", Align: Right, Format: Int()},
	)
	t.Add("ber", 1.2345, 0.00123, 3)
	t.Add("arq|50%", math.NaN(), 2.5e-7, 12)
	t.Add(`x_y&{z}`, -0.5, 1.0, 1)
	t.Note("repeats per group: %d", 3)
	return t
}

// TestGolden pins every backend byte-for-byte against testdata. Set
// MMTAG_UPDATE_GOLDEN=1 to regenerate.
func TestGolden(t *testing.T) {
	tab := sample()
	for _, tc := range []struct {
		name string
		got  string
	}{
		{"plain", tab.Plain()},
		{"csv", tab.CSV()},
		{"markdown", tab.Markdown()},
		{"latex", tab.LaTeX()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", tc.name+".golden")
			if os.Getenv("MMTAG_UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, []byte(tc.got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with MMTAG_UPDATE_GOLDEN=1): %v", err)
			}
			if tc.got != string(want) {
				t.Errorf("%s output drifted from golden:\n--- got ---\n%s--- want ---\n%s",
					tc.name, tc.got, want)
			}
		})
	}
}

func TestPlainAlignment(t *testing.T) {
	tab := New("",
		Column{Header: "name"},
		Column{Header: "val", Align: Right, Format: Int()},
	)
	tab.Add("a", 1)
	tab.Add("longer", 12345)
	// Cells are padded by runes, not bytes: σ and ° take two bytes each.
	tab.AddRow("σ", "16.9°")
	got := tab.Plain()
	lines := strings.Split(got, "\n")
	// Header, rule, three rows, trailing "".
	if len(lines) != 6 {
		t.Fatalf("want 6 lines, got %d: %q", len(lines), got)
	}
	if lines[2] != "a           1" {
		t.Errorf("right-aligned short row wrong: %q", lines[2])
	}
	if lines[3] != "longer  12345" {
		t.Errorf("right-aligned long row wrong: %q", lines[3])
	}
	if lines[4] != "σ       16.9°" {
		t.Errorf("multibyte row wrong: %q", lines[4])
	}
	// Rule width: sum over columns of width+2.
	if want := len("longer") + 2 + len("12345") + 2; len(lines[1]) != want {
		t.Errorf("rule width %d, want %d", len(lines[1]), want)
	}
}

// TestPlainMatchesLegacyLayout locks the plain format of left-aligned
// tables, the one every experiment table prints: padding after every
// cell (including the last), two-space gutters, full-width rule, note:
// prefix.
func TestPlainMatchesLegacyLayout(t *testing.T) {
	tab := New("T",
		Column{Header: "colA"},
		Column{Header: "b"},
	)
	tab.AddRow("x", "yyy")
	tab.Note("hello")
	want := "T\n" +
		"colA  b  \n" +
		"-----------\n" +
		"x     yyy\n" +
		"note: hello\n"
	if got := tab.Plain(); got != want {
		t.Errorf("plain layout drift:\n got %q\nwant %q", got, want)
	}
}

// TestRaggedRowNoPanic: a row with more cells than the header widens
// the table in every backend instead of indexing past the header's
// widths and panicking.
func TestRaggedRowNoPanic(t *testing.T) {
	tab := New("t", Col("only"))
	tab.AddRow("a", "extra", "cells")
	got := tab.Plain()
	if !strings.Contains(got, "extra") || !strings.Contains(got, "cells") {
		t.Errorf("ragged cells dropped: %q", got)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "extra") {
		t.Errorf("markdown dropped ragged cell: %q", md)
	}
	if !strings.Contains(tab.LaTeX(), "extra") {
		t.Error("latex dropped ragged cell")
	}
}

func TestFormatters(t *testing.T) {
	for _, tc := range []struct {
		f    Formatter
		v    any
		want string
	}{
		{Float(1), 1.25, "1.2"},
		{Float(1), math.NaN(), "n/a"},
		{Float(0), 7, "7"},
		{Sci(2), 0.00123, "1.23e-03"},
		{Sci(2), math.NaN(), "n/a"},
		{Int(), 42, "42"},
		{Int(), 41.9, "41"},
		{Int(), math.NaN(), "n/a"},
		{Default(), "x", "x"},
		{Float(1), "not-a-number", "not-a-number"},
		{FloatFunc(func(f float64) string { return "rate" }), 1.0, "rate"},
		{FloatFunc(func(f float64) string { return "rate" }), math.NaN(), "n/a"},
		{Printf("%.0f ft"), 4.0, "4 ft"},
	} {
		if got := tc.f(tc.v); got != tc.want {
			t.Errorf("format(%v): got %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := New("", Col("a"), Col("b"))
	tab.AddRow(`plain`, `with,comma`)
	tab.AddRow("with\nnewline", `with"quote`)
	got := tab.CSV()
	want := "a,b\n" +
		"plain,\"with,comma\"\n" +
		"\"with\nnewline\",\"with\"\"quote\"\n"
	if got != want {
		t.Errorf("csv escaping:\n got %q\nwant %q", got, want)
	}
}

func TestMarkdownEscaping(t *testing.T) {
	tab := New("a|b", Col("h|1"))
	tab.AddRow("v|al")
	got := tab.Markdown()
	if strings.Contains(strings.ReplaceAll(got, `\|`, ""), "v|al") {
		t.Errorf("unescaped pipe in markdown: %q", got)
	}
	for _, want := range []string{`### a\|b`, `| h\|1 |`, `| v\|al |`} {
		if !strings.Contains(got, want) {
			t.Errorf("markdown missing %q in %q", want, got)
		}
	}
}

func TestLaTeXEscaping(t *testing.T) {
	tab := New("", Col("h"))
	tab.AddRow(`a&b_c%d$e#f{g}~i^j\k`)
	got := tab.LaTeX()
	for _, want := range []string{
		`\&`, `\_`, `\%`, `\$`, `\#`, `\{`, `\}`,
		`\textasciitilde{}`, `\textasciicircum{}`, `\textbackslash{}`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("latex missing escape %q in %q", want, got)
		}
	}
	if !strings.Contains(got, `\begin{tabular}{l}`) {
		t.Errorf("latex column spec wrong: %q", got)
	}
}

func TestLaTeXAlignmentSpec(t *testing.T) {
	tab := New("", Col("a"), Column{Header: "n", Align: Right})
	tab.AddRow("x", "1")
	if got := tab.LaTeX(); !strings.Contains(got, `\begin{tabular}{lr}`) {
		t.Errorf("want lr spec, got %q", got)
	}
}

func TestFormatRowRagged(t *testing.T) {
	cols := []Column{{Header: "a", Format: Int()}}
	row := formatRow(cols, []any{1, "spill"})
	if len(row) != 2 || row[0] != "1" || row[1] != "spill" {
		t.Errorf("ragged formatRow: %v", row)
	}
}
