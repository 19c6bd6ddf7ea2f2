package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"testing"

	"ealb/internal/trace"
)

// tracedScenarioDigest runs one scenario through RunExpandedHooked with
// the given tracer attached to its single cell and hashes the
// JSON-encoded interval stream — the same bytes clusterDigest and
// farmDigest hash, so the result is directly comparable to the pinned
// churned goldens.
func tracedScenarioDigest(t *testing.T, workers int, s Scenario, tr trace.Tracer) string {
	t.Helper()
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ex := ExpandedSweep{
		spec:  SweepSpec{Scenario: Scenario{Kind: s.Kind}},
		cells: []Scenario{s},
	}
	res, err := NewPool(workers).RunExpandedHooked(context.Background(), ex,
		RunHooks{TracerFor: func(int) trace.Tracer { return tr }})
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cells[0]
	var raw []byte
	switch {
	case cell.Cluster != nil:
		raw, err = json.Marshal(cell.Cluster.Stats)
	case cell.Farm != nil:
		raw, err = json.Marshal(cell.Farm.Stats)
	default:
		t.Fatalf("cell carries neither cluster nor farm result: %+v", cell)
	}
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestEngineTraceInvariance replays the pinned churned golden scenarios
// through RunExpandedHooked with a full tracer (recorder + discarded
// NDJSON writer) attached: the digests must still match the pins
// byte-for-byte, and the tracer must have actually seen decisions —
// failures included — so the invariance claim is not vacuous.
func TestEngineTraceInvariance(t *testing.T) {
	for _, g := range churnGoldenDigests {
		g := g
		t.Run("cluster/"+g.name, func(t *testing.T) {
			t.Parallel()
			rec := trace.NewRecorder()
			tr := trace.Multi(rec, trace.NewWriter(io.Discard))
			got := tracedScenarioDigest(t, 4, g.scenario, tr)
			if got != g.digest {
				t.Errorf("traced churned run drifted from the pinned digest:\n got  %s\n want %s", got, g.digest)
			}
			if rec.TotalEvents() == 0 {
				t.Error("tracer saw no events; invariance check is vacuous")
			}
			if rec.Events(trace.KindFail) == 0 {
				t.Error("churned run traced no failures")
			}
		})
	}
	if testing.Short() {
		t.Log("skipping federated traced digests in -short mode")
		return
	}
	for _, g := range farmChurnGoldenDigests {
		g := g
		t.Run("farm/"+g.name, func(t *testing.T) {
			t.Parallel()
			rec := trace.NewRecorder()
			tr := trace.Multi(rec, trace.NewWriter(io.Discard))
			got := tracedScenarioDigest(t, 4, g.scenario, tr)
			if got != g.digest {
				t.Errorf("traced churned farm drifted from the pinned digest:\n got  %s\n want %s", got, g.digest)
			}
			if rec.Events(trace.KindDispatch) == 0 {
				t.Error("farm run traced no dispatch decisions")
			}
			if rec.Events(trace.KindFail) == 0 {
				t.Error("churned farm traced no failures")
			}
		})
	}
}

// TestPoolJobHistograms: every executed job lands one observation in
// each of the pool's queue-wait and run-duration histograms.
func TestPoolJobHistograms(t *testing.T) {
	p := NewPool(2)
	if err := p.Map(context.Background(), 5, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.JobQueueWait.Count != 5 {
		t.Errorf("queue-wait count = %d, want 5", st.JobQueueWait.Count)
	}
	if st.JobRunDuration.Count != 5 {
		t.Errorf("run-duration count = %d, want 5", st.JobRunDuration.Count)
	}
	// The inline single-worker path must observe too.
	p1 := NewPool(1)
	if err := p1.Map(context.Background(), 3, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := p1.Stats().JobRunDuration.Count; got != 3 {
		t.Errorf("inline-path run-duration count = %d, want 3", got)
	}
}

// TestScenarioTraceValidation: the trace flag is accepted on cluster and
// farm scenarios and rejected on policy ones (decision tracing has no
// meaning for the closed-form §3 line-up).
func TestScenarioTraceValidation(t *testing.T) {
	ok := []Scenario{
		{Kind: KindCluster, Size: 40, Intervals: 3, Trace: true},
		{Kind: KindFarm, Clusters: 2, Size: 40, Intervals: 3, Trace: true},
	}
	for i, s := range ok {
		if err := s.Normalized().Validate(); err != nil {
			t.Errorf("scenario %d with trace rejected: %v", i, err)
		}
	}
	bad := Scenario{Kind: KindPolicy, Trace: true}
	if err := bad.Normalized().Validate(); err == nil {
		t.Error("policy scenario with trace unexpectedly valid")
	}
}
