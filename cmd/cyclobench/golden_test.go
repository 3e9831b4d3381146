package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cyclojoin/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite cyclobench_output.txt from the current code")

// TestOutputGolden pins the default run, every experiment in paper order,
// to the committed capture byte for byte. Run with -update to regenerate
// the capture after an intended change to a figure.
func TestOutputGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, experiments.All()); err != nil {
		t.Fatalf("run: %v", err)
	}
	path := filepath.Join("..", "..", "cyclobench_output.txt")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read capture (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from %s (run with -update to regenerate).\n--- got ---\n%s\n--- want ---\n%s", path, buf.Bytes(), want)
	}
}
