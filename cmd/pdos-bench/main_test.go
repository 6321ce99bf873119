package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pulsedos/internal/figures"
	"pulsedos/internal/runcache"
)

func TestRunAnalyticFigures(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scale", "quick", "-out", dir, "-figures", "fig4,prop3"}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig4", "prop3"} {
		data, err := os.ReadFile(filepath.Join(dir, id+".csv"))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.HasPrefix(string(data), "series,x,y\n") {
			t.Errorf("%s: missing CSV header", id)
		}
		if len(strings.Split(string(data), "\n")) < 10 {
			t.Errorf("%s: too few rows", id)
		}
	}
	// Unselected figures must not be generated.
	if _, err := os.Stat(filepath.Join(dir, "fig6.csv")); !os.IsNotExist(err) {
		t.Error("fig6 generated despite the filter")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-scale", "huge"}); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestBuildersCoverAllFigures(t *testing.T) {
	want := map[string]bool{
		"fig1": true, "fig2": true, "fig3a": true, "fig3b": true, "fig4": true,
		"fig6": true, "fig7": true, "fig8": true, "fig9": true, "fig10": true,
		"fig12": true, "prop3": true,
	}
	for _, id := range figures.IDs() {
		delete(want, id)
	}
	if len(want) != 0 {
		t.Errorf("figure registry missing figures: %v", want)
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	err := run([]string{"-out", t.TempDir(), "-figures", "fig99"})
	if err == nil || !strings.Contains(err.Error(), `unknown figure "fig99"`) {
		t.Errorf("unknown figure id not rejected: %v", err)
	}
}

// TestRunCacheReplay runs one simulated figure twice into the same -cache
// directory: the second run must replay it from disk, byte-identical and
// without adding a cache entry.
func TestRunCacheReplay(t *testing.T) {
	cache := t.TempDir()
	entries := func() int {
		store, err := runcache.Open(cache, 0)
		if err != nil {
			t.Fatal(err)
		}
		return store.Stats().Entries
	}
	var csvs [2][]byte
	var counts [2]int
	for i := range csvs {
		dir := t.TempDir()
		if err := run([]string{"-out", dir, "-figures", "fig1", "-cache", cache}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "fig1.csv"))
		if err != nil {
			t.Fatal(err)
		}
		csvs[i], counts[i] = data, entries()
	}
	if counts[0] == 0 {
		t.Fatal("first run left the cache empty")
	}
	if counts[1] != counts[0] {
		t.Errorf("second run grew the cache from %d to %d entries", counts[0], counts[1])
	}
	if !bytes.Equal(csvs[0], csvs[1]) {
		t.Error("fig1.csv differs between the computed and the cached run")
	}
}

func TestRunHTMLReport(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-figures", "fig4", "-html"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "index.html"))
	if err != nil {
		t.Fatal(err)
	}
	page := string(data)
	if !strings.Contains(page, "<svg") || !strings.Contains(page, "fig4") {
		t.Error("report missing chart or figure id")
	}
}
