package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the experiment render goldens in testdata")

// TestRenderGoldens pins the quick-scale checkpoint and failover tables
// byte for byte. Neither table has a host-dependent column, so any
// drift is a change in simulated behaviour that has to be explained.
// Between them they cover the 25 ms and 200 ms save periods, the 64 KiB
// and 8 MiB state sizes, slowdown factors above 1 (the slow+hang plan)
// and checkpoint migration after board deaths. Refresh intentionally
// with -update.
func TestRenderGoldens(t *testing.T) {
	cases := []struct {
		name   string
		render func(Config) (string, error)
	}{
		{"checkpoint", func(c Config) (string, error) {
			r, err := CheckpointAblation(c)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"failover", func(c Config) (string, error) {
			r, err := Failover(c)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.render(QuickConfig())
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+"_quick.golden.txt")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Fatalf("%s render drifted from %s:\ngot:\n%s\nwant:\n%s", tc.name, path, got, want)
			}
		})
	}
}
