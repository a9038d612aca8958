package main

import (
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	want, err := parseExperiments("fig5, fleet,checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 || !want["fig5"] || !want["fleet"] || !want["checkpoint"] {
		t.Fatalf("parsed %v", want)
	}
	for _, name := range experimentNames {
		if _, err := parseExperiments(name); err != nil {
			t.Fatalf("known experiment %q rejected: %v", name, err)
		}
	}
	for _, bad := range []string{"bogus", "fig5,bogus", "Fig5", "fig5,", ""} {
		_, err := parseExperiments(bad)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("-exp %q: err = %v, want an unknown-experiment error", bad, err)
		}
	}
}
