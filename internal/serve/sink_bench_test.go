package serve

import (
	"testing"

	"ealb/internal/engine"
	"ealb/internal/store"
	"ealb/internal/trace"
)

// BenchmarkTraceSink measures one decision event through a traced run's
// sink end to end: encoding, the live trace tail and the store append.
// A fresh run starts every 1<<16 events, below the per-cell cap, so no
// event takes the cheap dropped path.
func BenchmarkTraceSink(b *testing.B) {
	for _, sk := range []struct {
		name string
		open func(b *testing.B) store.RunStore
	}{
		{"memory", func(*testing.B) store.RunStore { return store.NewMemoryRetain(1) }},
		{"disk", func(b *testing.B) store.RunStore {
			d, err := store.OpenDisk(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return d
		}},
	} {
		b.Run(sk.name, func(b *testing.B) {
			st := sk.open(b)
			defer st.Close()
			s := NewWith(engine.NewPool(1), Options{Store: st})
			e := trace.Event{Kind: trace.KindReport, Interval: 17, Time: 1020, Dst: -1, App: -1, Demand: 0.6123456789}
			var tt *tailTracer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%(1<<16) == 0 {
					b.StopTimer()
					if tt != nil {
						tt.tail.finish()
						if err := st.PutRun(store.Record{ID: tt.runID, Status: StatusDone}); err != nil {
							b.Fatal(err)
						}
					}
					id, _, err := st.NewID()
					if err != nil {
						b.Fatal(err)
					}
					tt = &tailTracer{srv: s, tail: newTail(1), runID: id}
					b.StartTimer()
				}
				e.Src = i % 1000
				tt.Event(e)
			}
		})
	}
}
