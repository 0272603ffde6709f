package main

import (
	"bytes"
	"os"
	"testing"
)

// TestSmallCampaignGolden runs the whole small-scale campaign and
// compares its figure text byte for byte with paperbench_small.txt. The
// simulated results are deterministic, so any change to them — a timing
// model, a workload, a scheduling representation — shows here as a
// diff. After an intentional change, regenerate the file with
// `go run ./cmd/paperbench -scale small -q -j 2 > paperbench_small.txt`.
func TestSmallCampaignGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full small-scale campaign")
	}
	want, err := os.ReadFile("../../paperbench_small.txt")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "small", "-q", "-j", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr.String())
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("output differs from paperbench_small.txt at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, paperbench_small.txt has %d", len(gl), len(wl))
	}
}
