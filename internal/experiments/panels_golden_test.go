package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"ealb/internal/engine"
	"ealb/internal/workload"
)

// TestPanelDigests pins the JSON of the Figure 2, energy-savings and
// robustness panels at small sizes, so a change to how the panels are
// dispatched on the engine cannot move a byte of them. The custom band
// exercises a band that is neither of the paper's two.
func TestPanelDigests(t *testing.T) {
	p := engine.NewPool(2)
	sizes := []int{20, 40}
	custom := workload.Band{Lo: 0.45, Hi: 0.55}
	panels := []struct {
		name   string
		run    func() (any, error)
		digest string
	}{
		{"figure2", func() (any, error) {
			return Figure2On(p, sizes, DefaultSeed, 10)
		}, "8527d7262c638cc163c2c92364c48086228e040516274724a255c41c6b9d4089"},
		{"energy-savings", func() (any, error) {
			return EnergySavingsSweepOn(p, sizes, []workload.Band{workload.LowLoad(), workload.HighLoad(), custom}, DefaultSeed, 10)
		}, "db70c3ff253521110d8a50509d123674f7e3a09fc1c8d1dca5b30eece001da53"},
		{"robustness", func() (any, error) {
			return RunRobustnessOn(p, 40, workload.HighLoad(), []uint64{1, 2, 3}, 10)
		}, "49cde9bd404ad7a28c541297bb85cfbc6906a0d16158c252e44b177646b6b3b6"},
		{"robustness-custom-band", func() (any, error) {
			return RunRobustnessOn(p, 20, custom, []uint64{4, 5}, 10)
		}, "05b885e0c0769b14ef40f536e6de2af18125b6d19e083d4661f93d3605d2d970"},
	}
	for _, pn := range panels {
		v, err := pn.run()
		if err != nil {
			t.Fatalf("%s: %v", pn.name, err)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", pn.name, err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != pn.digest {
			t.Errorf("%s digest drifted:\n got  %s\n want %s", pn.name, got, pn.digest)
		}
	}
}
