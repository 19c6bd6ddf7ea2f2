package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// phaseRecord is the json.Marshal shape of a phase line, the reference
// appendPhase is held to.
type phaseRecord struct {
	Phase string `json:"phase"`
	NS    int64  `json:"ns"`
}

// checkAppendEvent asserts AppendEvent(prefix, e) equals prefix plus
// json.Marshal(e), and that both fail together (leaving prefix intact).
func checkAppendEvent(t *testing.T, e Event) {
	t.Helper()
	prefix := []byte("prefix:")
	want, werr := json.Marshal(e)
	got, gerr := AppendEvent(append([]byte(nil), prefix...), e)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("error mismatch for %#v: Marshal %v, AppendEvent %v", e, werr, gerr)
	}
	if werr != nil {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("failed AppendEvent modified the buffer: %q", got)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("encoding drifted for %#v:\ngot:  %s\nwant: %s", e, got[min(len(prefix), len(got)):], want)
	}
}

// encodeSeeds are the edge cases FuzzAppendEvent starts from and
// TestAppendEventMatchesMarshal pins: coordinate extremes, the float
// cut-overs between 'f' and 'e' formatting, negative zero, subnormals,
// strings needing HTML, control, JSONP and invalid-UTF-8 escapes, and
// the NaN/Inf and invalid-kind error paths.
var encodeSeeds = []Event{
	{Kind: KindReport, Interval: 1, Time: 60, Src: 3, Dst: -1, App: -1},
	{Kind: KindMove, Interval: -1, Time: math.Copysign(0, -1), Cluster: math.MaxInt, Src: math.MinInt, Dst: -1, App: math.MaxInt, Demand: 0.25},
	{Kind: KindSleep, Time: 1e-7, Src: 9, Dst: -1, App: -1, Target: "C6"},
	{Kind: KindWake, Time: 1e21, Demand: 1e-6},
	{Kind: KindMove, Time: math.Copysign(0, -1), Demand: math.Copysign(0, -1)},
	{Kind: KindWake, Time: 999999999999999999999, Demand: 9.999999e-7},
	{Kind: KindAdmit, Time: 123456789.5, Demand: math.Copysign(0, -1), OK: true, Dst: 4, App: 17},
	{Kind: KindFail, Time: 5e-324, Demand: 2.2250738585072014e-308, Replaced: 3, Lost: -2},
	{Kind: KindRepair, Time: math.MaxFloat64, Demand: -math.SmallestNonzeroFloat64},
	{Kind: KindDispatch, Cluster: 2, OK: true, Target: "<script>&amp;</script>"},
	{Kind: KindSleep, Target: "line\u2028para\u2029end"},
	{Kind: KindSleep, Target: "bad\xff\xfeutf8\xc3"},
	{Kind: KindSleep, Target: "ctl\x00\x01\b\f\n\r\t\x1f\"\\\x7f"},
	{Kind: KindReport, Time: math.NaN()},
	{Kind: KindReport, Time: math.Inf(1)},
	{Kind: KindReport, Demand: math.Inf(-1)},
	{Kind: numKinds, Time: 1},
	{Kind: 255},
}

func TestAppendEventMatchesMarshal(t *testing.T) {
	for _, e := range encodeSeeds {
		checkAppendEvent(t, e)
	}
}

func TestAppendPhaseMatchesMarshal(t *testing.T) {
	for p := Phase(0); p <= NumPhases; p++ {
		for _, ns := range []int64{0, 1, -5, math.MaxInt64, math.MinInt64} {
			want, err := json.Marshal(phaseRecord{Phase: p.String(), NS: ns})
			if err != nil {
				t.Fatal(err)
			}
			if got := appendPhase(nil, p, ns); !bytes.Equal(got, want) {
				t.Fatalf("phase line drifted:\ngot:  %s\nwant: %s", got, want)
			}
		}
	}
}

// TestWriterMatchesEncoder: the Writer's NDJSON is byte-identical to a
// json.Encoder over the same events and phases, including the sticky
// stop at the first unencodable event.
func TestWriterMatchesEncoder(t *testing.T) {
	var got, want bytes.Buffer
	w := NewWriter(&got)
	enc := json.NewEncoder(&want)
	for i := 0; i < 5000; i++ { // several 64 KiB buffer turnovers
		e := encodeSeeds[i%13] // the encodable seeds
		e.Interval = i
		w.Event(e)
		enc.Encode(e)
		w.Phase(Phase(i%int(NumPhases)), time.Duration(i))
		enc.Encode(phaseRecord{Phase: Phase(i % int(NumPhases)).String(), NS: int64(i)})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("Writer output differs from json.Encoder output")
	}
	w.Event(Event{Kind: KindReport, Time: math.NaN()})
	w.Event(encodeSeeds[0])
	if err := w.Flush(); err == nil {
		t.Fatal("an unencodable event did not set the sticky error")
	}
	if got.Len() != want.Len() {
		t.Fatalf("writer kept writing after an unencodable event: %d extra bytes", got.Len()-want.Len())
	}
}

// FuzzAppendEvent is differential: for any event, AppendEvent's bytes
// equal json.Marshal's, and they fail on exactly the same inputs.
func FuzzAppendEvent(f *testing.F) {
	for _, e := range encodeSeeds {
		f.Add(uint8(e.Kind), e.Interval, e.Time, e.Cluster, e.Src, e.Dst, e.App,
			e.Demand, e.Target, e.OK, e.Replaced, e.Lost)
	}
	f.Fuzz(func(t *testing.T, kind uint8, interval int, tm float64, cluster, src, dst, app int,
		demand float64, target string, ok bool, replaced, lost int) {
		checkAppendEvent(t, Event{
			Kind: Kind(kind), Interval: interval, Time: tm, Cluster: cluster,
			Src: src, Dst: dst, App: app, Demand: demand, Target: target,
			OK: ok, Replaced: replaced, Lost: lost,
		})
	})
}
