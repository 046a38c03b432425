package main

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
)

func TestRunRejectsBadInvocations(t *testing.T) {
	cases := [][]string{
		nil,                         // no subcommand
		{"frobnicate"},              // unknown subcommand
		{"tables", "-table", "7"},   // unknown table
		{"figures", "-fig", "9"},    // unknown figure
		{"topology", "-app", "zzz"}, // unknown app
		{"localize"},                // missing -model/-fault
		{"evaluate", "-app", "zzz"},
		{"train", "-metrics", "nonsense"},
		{"sweep", "-seeds", "0"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(context.Background(), %v) accepted", args)
		}
	}
}

func TestBuilderFor(t *testing.T) {
	for _, name := range []string{"causalbench", "robotshop"} {
		if _, err := builderFor(name); err != nil {
			t.Errorf("builderFor(%q): %v", name, err)
		}
	}
	if _, err := builderFor("nope"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestCmdTopologyRuns(t *testing.T) {
	if err := run(context.Background(), []string{"topology", "-app", "causalbench"}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainLocalizeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	if err := run(context.Background(), []string{
		"train", "-app", "causalbench", "-quick", "-out", modelPath,
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "causal_sets") {
		t.Fatal("model file missing causal sets")
	}
	if err := run(context.Background(), []string{
		"localize", "-app", "causalbench", "-quick",
		"-model", modelPath, "-fault", "D",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectLearnWorldsDiffPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	modelA := filepath.Join(dir, "a.json")
	modelB := filepath.Join(dir, "b.json")

	if err := run(context.Background(), []string{"collect", "-app", "causalbench", "-quick", "-out", dataPath}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"learn", "-data", dataPath, "-out", modelA}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"worlds", "-model", modelA}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"train", "-app", "causalbench", "-quick", "-seed", "7", "-out", modelB}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"diff", "-old", modelA, "-new", modelB}); err != nil {
		t.Fatal(err)
	}
	// Multi-fault localization through the CLI.
	if err := run(context.Background(), []string{
		"localize", "-app", "causalbench", "-quick", "-model", modelA, "-fault", "B,I",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalizeMissingInputs(t *testing.T) {
	if err := run(context.Background(), []string{"localize", "-model", "x.json"}); err == nil {
		t.Fatal("localize without -fault or -production accepted")
	}
	if err := run(context.Background(), []string{"learn"}); err == nil {
		t.Fatal("learn without -data accepted")
	}
	if err := run(context.Background(), []string{"worlds"}); err == nil {
		t.Fatal("worlds without -model accepted")
	}
	if err := run(context.Background(), []string{"diff", "-old", "x"}); err == nil {
		t.Fatal("diff without -new accepted")
	}
	if err := run(context.Background(), []string{"serve", "-snapshot-dir", ""}); err == nil {
		t.Fatal("serve with empty -snapshot-dir accepted")
	}
	if err := run(context.Background(), []string{"serve", "-snapshot-dir", t.TempDir(), "-model", "nope.json"}); err == nil {
		t.Fatal("serve accepted the -model flag, which it no longer has")
	}
}

// TestHTTPServerTimeouts pins serve's connection hardening: a client that
// never finishes its headers, or idles on a kept-alive connection, is cut
// off, while whole-request timeouts stay unset so verdict long-polls and
// large ingest bodies are never cut short.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	hs := newHTTPServer("127.0.0.1:0", h)
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v, want both unset", hs.ReadTimeout, hs.WriteTimeout)
	}
	if hs.Addr != "127.0.0.1:0" || hs.Handler == nil {
		t.Errorf("server built with addr %q, handler %v", hs.Addr, hs.Handler)
	}
}

// productionFixture writes a small trained model over services {x, y}, in
// which a fault in x shifts metric m on both, and returns its path plus a
// production snapshot drawn from the x world.
func productionFixture(t *testing.T) (string, *metrics.Snapshot) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	mk := func(shift float64) *metrics.Snapshot {
		snap := metrics.NewSnapshot([]string{"m"}, []string{"x", "y"})
		for _, svc := range []string{"x", "y"} {
			series := make([]float64, 15)
			for i := range series {
				series[i] = 5 + shift + rng.NormFloat64()*0.4
			}
			snap.Data["m"][svc] = series
		}
		return snap
	}
	learner, err := core.NewLearner()
	if err != nil {
		t.Fatal(err)
	}
	model, err := learner.Learn(context.Background(), mk(0), map[string]*metrics.Snapshot{"x": mk(9)})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := writeOutput(path, model.WriteJSON); err != nil {
		t.Fatal(err)
	}
	return path, mk(9)
}

// writeSnapshot stores a production snapshot as JSON and returns its path.
func writeSnapshot(t *testing.T, snap *metrics.Snapshot) string {
	t.Helper()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return writeFile(t, string(blob))
}

// writeFile stores body in a fresh temp file and returns its path.
func writeFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snapshot.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// localizeProduction runs `causalfl localize -production` and returns its
// output.
func localizeProduction(t *testing.T, model, snapshot string) string {
	t.Helper()
	return captureStdout(t, func() error {
		return run(context.Background(), []string{"localize", "-model", model, "-production", snapshot})
	})
}

func TestLocalizeProduction(t *testing.T) {
	model, production := productionFixture(t)
	out := localizeProduction(t, model, writeSnapshot(t, production))
	if !strings.Contains(out, "localized to:      x\n") {
		t.Fatalf("clean snapshot did not localize to x:\n%s", out)
	}
	if !strings.Contains(out, "A(m) = {x, y}") {
		t.Fatalf("output lacks the anomaly explanation:\n%s", out)
	}
}

func TestLocalizeProductionDegraded(t *testing.T) {
	model, production := productionFixture(t)

	// A declared pair is missing: the localizer runs on what remains.
	partial := production.Clone()
	delete(partial.Data["m"], "y")
	out := localizeProduction(t, model, writeSnapshot(t, partial))
	if strings.Contains(out, "abstained") || !strings.Contains(out, "localized to:      x") {
		t.Fatalf("partial snapshot should localize to x without abstaining:\n%s", out)
	}

	// Every series is gone (universe still declared): explicit abstention.
	dark := metrics.NewSnapshot([]string{"m"}, []string{"x", "y"})
	out = localizeProduction(t, model, writeSnapshot(t, dark))
	if !strings.Contains(out, "localized to:      abstained") {
		t.Fatalf("dark snapshot should abstain:\n%s", out)
	}
}

func TestLocalizeProductionRejects(t *testing.T) {
	model, production := productionFixture(t)
	wrong := metrics.NewSnapshot([]string{"other"}, []string{"x", "y"})
	wrong.Data["other"]["x"] = []float64{1, 2}
	wrong.Data["other"]["y"] = []float64{1, 2}
	undeclared := production.Clone()
	undeclared.Services = []string{"x"}
	delete(undeclared.Data["m"], "y")

	for _, tc := range []struct {
		name, model, snapshot, want string
	}{
		{"different metric universe", model, writeSnapshot(t, wrong), `does not declare model metric "m"`},
		{"different service universe", model, writeSnapshot(t, undeclared), `does not declare model service "y"`},
		{"truncated JSON", model, writeFile(t, "{"), "decode production snapshot"},
		{"bare NaN", model, writeFile(t, `{"metrics":["m"],"services":["x","y"],"data":{"m":{"x":[NaN]}}}`), "decode production snapshot"},
		{"overflowing value", model, writeFile(t, `{"metrics":["m"],"services":["x","y"],"data":{"m":{"x":[1e999]}}}`), "decode production snapshot"},
		{"empty universe", model, writeFile(t, `{"metrics":[],"services":[],"data":{}}`), "production snapshot"},
		{"undeclared stored pair", model, writeFile(t, `{"metrics":["m"],"services":["x","y"],"data":{"m":{"z":[1]}}}`), "undeclared service"},
	} {
		err := run(context.Background(), []string{"localize", "-model", tc.model, "-production", tc.snapshot})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestLocalizeRejectsInvalidModel checks that localize refuses a model file
// that decodes but does not validate, before reading any snapshot.
func TestLocalizeRejectsInvalidModel(t *testing.T) {
	_, production := productionFixture(t)
	snapshot := writeSnapshot(t, production)
	for _, body := range []string{"{}", "null"} {
		err := run(context.Background(), []string{"localize", "-model", writeFile(t, body), "-production", snapshot})
		if err == nil || !strings.Contains(err.Error(), "model") {
			t.Errorf("model %s: err = %v, want a model error", body, err)
		}
	}
}

// TestWorldsPrintsCausalSets checks that `causalfl worlds` lists each
// metric's causal sets.
func TestWorldsPrintsCausalSets(t *testing.T) {
	model, _ := productionFixture(t)
	out := captureStdout(t, func() error {
		return run(context.Background(), []string{"worlds", "-model", model})
	})
	for _, want := range []string{"metric m:", "C(x) = {x, y}"} {
		if !strings.Contains(out, want) {
			t.Errorf("worlds output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdFiguresCausalSets(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	if err := run(context.Background(), []string{"figures", "-fig", "causal-sets", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	blob, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(blob)
}

// TestSweepDeterministicAcrossWorkers pins the CLI-level determinism
// contract: `causalfl sweep` must print byte-identical output whether the
// seed campaigns run serially or on a saturated pool.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	sweep := func(workers string) string {
		return captureStdout(t, func() error {
			return run(context.Background(), []string{
				"sweep", "-app", "causalbench", "-quick", "-seeds", "3", "-workers", workers,
			})
		})
	}
	serial := sweep("1")
	pooled := sweep("8")
	if serial == "" {
		t.Fatal("sweep produced no output")
	}
	if serial != pooled {
		t.Fatalf("sweep output differs between -workers=1 and -workers=8:\n--- serial ---\n%s\n--- pooled ---\n%s", serial, pooled)
	}
}

// TestCmdBenchWritesJSON smoke-tests the bench subcommand's JSON artifact.
func TestCmdBenchWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(context.Background(), []string{"bench", "-quick", "-out", out}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		GOMAXPROCS int `json:"gomaxprocs"`
		Entries    []struct {
			Stage   string  `json:"stage"`
			Workers int     `json:"workers"`
			WallMS  float64 `json:"wall_ms"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("bench JSON: %v", err)
	}
	if len(doc.Entries) < 3 {
		t.Fatalf("bench JSON has %d entries, want at least learn/localize/campaign", len(doc.Entries))
	}
	stages := map[string]bool{}
	for _, e := range doc.Entries {
		stages[e.Stage] = true
		if e.WallMS < 0 {
			t.Fatalf("stage %s workers=%d has negative wall time", e.Stage, e.Workers)
		}
	}
	for _, want := range []string{"learn", "localize", "campaign"} {
		if !stages[want] {
			t.Fatalf("bench JSON missing stage %q", want)
		}
	}
}
