package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nimblock/internal/report"
)

var update = flag.Bool("update", false, "rewrite the experiment render goldens in testdata")

// TestRenderGoldens pins the quick-scale checkpoint, failover and fleet
// tables byte for byte. The fleet table is rendered without its
// host-dependent Ev/s column (see renderFleetSimulated); the others have
// none, so any drift is a change in simulated behaviour that has to be
// explained. Between them they cover the 25 ms and 200 ms save periods,
// the 64 KiB and 8 MiB state sizes, slowdown factors above 1 (the
// slow+hang plan), checkpoint migration after board deaths, and the
// sharded fleet's epoch loop. Refresh intentionally with -update.
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
		{"fleet", func(c Config) (string, error) {
			r, err := Fleet(c, nil)
			if err != nil {
				return "", err
			}
			return renderFleetSimulated(r), nil
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

// renderFleetSimulated prints the fleet sweep's simulated cell fields:
// the published table minus its wall-clock Ev/s column, plus the
// makespan and the epoch-grid count the coordinator reports.
func renderFleetSimulated(r *FleetResult) string {
	t := &report.Table{
		Title:  "Fleet scale-up (simulated fields)",
		Header: []string{"Scale", "Boards", "Shards", "Rate/s", "Arrivals", "Done", "Shed", "Mean resp", "p99 resp", "Makespan", "Events", "Epochs"},
	}
	for _, c := range r.Cells {
		t.AddRow(
			fmt.Sprintf("%dx", c.Scale),
			fmt.Sprintf("%d", c.Boards),
			fmt.Sprintf("%d", c.Shards),
			fmt.Sprintf("%g", c.Rate),
			fmt.Sprintf("%d", c.Arrivals),
			fmt.Sprintf("%d", c.Done),
			fmt.Sprintf("%d", c.Shed),
			fmt.Sprintf("%.6fs", c.MeanResponse),
			fmt.Sprintf("%.6fs", c.P99Response),
			fmt.Sprintf("%gs", c.Makespan),
			fmt.Sprintf("%d", c.EventsFired),
			fmt.Sprintf("%d", c.Epochs),
		)
	}
	return t.Render()
}
