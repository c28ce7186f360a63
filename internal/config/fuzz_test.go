package config

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzConfigParse checks the config dialect round-trips: whatever Parse
// accepts, Print renders into text that Parse accepts again and that
// Print reproduces byte for byte.
func FuzzConfigParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.cfg"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed configs in testdata: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, text string) {
		r, err := Parse(text)
		if err != nil {
			return
		}
		out := Print(r)
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(Print(r)) failed: %v\ntext: %q\nprinted: %q", err, text, out)
		}
		if again := Print(back); again != out {
			t.Fatalf("Print unstable across a round trip:\nfirst:  %q\nsecond: %q", out, again)
		}
	})
}
