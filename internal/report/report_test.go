package report

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"causalfl/internal/clock"
	"causalfl/internal/eval"
)

func TestSectionsAreComplete(t *testing.T) {
	sections := Sections()
	if len(sections) < 12 {
		t.Fatalf("report has %d sections; every table, figure and extension must appear", len(sections))
	}
	seen := make(map[string]bool, len(sections))
	keys := make(map[string]bool, len(sections))
	for _, s := range sections {
		if s.Key == "" || s.Title == "" || s.Run == nil {
			t.Fatalf("malformed section %+v", s)
		}
		if seen[s.Title] || keys[s.Key] {
			t.Fatalf("duplicate section %q (key %q)", s.Title, s.Key)
		}
		seen[s.Title] = true
		keys[s.Key] = true
	}
	for _, want := range []string{"Table I", "Table II", "Fig. 1", "Fig. 2", "scalability"} {
		found := false
		for title := range seen {
			if strings.Contains(title, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no section mentions %q", want)
		}
	}
}

func TestGenerateQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full report generation skipped in -short mode")
	}
	// A fake clock that never advances prints every wall as 0s, so the
	// whole document is byte-stable and pinned by a golden file.
	var b strings.Builder
	if err := Generate(context.Background(), eval.Options{Seed: 42, Quick: true, Clock: &clock.Fake{}}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	checkGolden(t, "report.quick.golden.md", []byte(out))
	for _, want := range []string{
		"# causalfl evaluation report",
		"abbreviated",
		"## Table I",
		"## Table II",
		"accuracy",
		"causal relations depend",
		"Concurrent-fault extension",
		"Scalability on generated topologies",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Count(out, "## ") != len(Sections()) {
		t.Errorf("report has %d section headings, want %d", strings.Count(out, "## "), len(Sections()))
	}
}

func TestEffectiveSeed(t *testing.T) {
	if got := (eval.Options{}).EffectiveSeed(); got != 42 {
		t.Errorf("default seed = %d", got)
	}
	if got := (eval.Options{Seed: 7}).EffectiveSeed(); got != 7 {
		t.Errorf("explicit seed = %d", got)
	}
}

// checkGolden compares got against testdata/name, refreshing the file when
// CAUSALFL_UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("CAUSALFL_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with CAUSALFL_UPDATE_GOLDEN=1 go test ./internal/report -run TestGenerateQuick)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("quick report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
