package all

import (
	"strings"
	"testing"

	"umzi/internal/workload"
)

// TestScenarios runs every registered scenario that needs no remote
// server at scale 1, so a scenario's invariant checks block a change
// like any other test.
func TestScenarios(t *testing.T) {
	scenarios, err := workload.Select("!" + workload.AttrRemote)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) == 0 {
		t.Fatal("no scenario registered")
	}
	for _, scn := range scenarios {
		scn := scn
		t.Run(scn.Name(), func(t *testing.T) {
			rep := workload.Run([]*workload.Scenario{scn}, workload.RunOptions{Scale: 1, Seed: 1}, scn.Name())
			for _, res := range rep.Results {
				if res.Status != "pass" {
					t.Errorf("%s failed:\n%s", res.Name, strings.Join(res.Failures, "\n"))
				}
			}
		})
	}
}
