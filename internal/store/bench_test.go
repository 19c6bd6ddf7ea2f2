package store

import (
	"os"
	"testing"
)

// benchLine is a typical encoded trace event: a per-server regime
// report, the bulk of every traced run.
var benchLine = []byte(`{"kind":"report","interval":17,"t":1020,"cluster":0,"src":734,"dst":-1,"app":-1,"demand":0.6123456789}`)

// benchLinesPerRun bounds each benchmark run's streams; a fresh run
// starts every benchLinesPerRun appends so neither the memory store's
// buffers nor the disk store's files grow with b.N.
const benchLinesPerRun = 1 << 14

// benchStores opens each backend for the store benchmarks. The memory
// store retains one finished run's streams, so finished benchmark runs
// are released.
var benchStores = []struct {
	name string
	open func(b *testing.B) RunStore
}{
	{"memory", func(*testing.B) RunStore { return NewMemoryRetain(1) }},
	{"disk", func(b *testing.B) RunStore { return openDisk(b, b.TempDir()) }},
}

// nextBenchRun finishes the previous benchmark run (removing its files
// on the disk store) and reserves a fresh one.
func nextBenchRun(b *testing.B, s RunStore, prev string) string {
	b.Helper()
	if prev != "" {
		if err := s.PutRun(Record{ID: prev, Status: "done"}); err != nil {
			b.Fatal(err)
		}
		if d, ok := s.(*Disk); ok {
			if err := os.RemoveAll(d.runDir(prev)); err != nil {
				b.Fatal(err)
			}
		}
	}
	id, _, err := s.NewID()
	if err != nil {
		b.Fatal(err)
	}
	return id
}

// BenchmarkStore measures the traced path's store operations per
// backend: AppendTrace is one event line appended (four cells
// interleaved, as a sweep's workers append them), Trace one cell's
// lines read back from a run of four cells.
func BenchmarkStore(b *testing.B) {
	for _, bs := range benchStores {
		b.Run(bs.name, func(b *testing.B) {
			b.Run("AppendTrace", func(b *testing.B) {
				s := bs.open(b)
				defer s.Close()
				var id string
				b.SetBytes(int64(len(benchLine)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if i%benchLinesPerRun == 0 {
						b.StopTimer()
						id = nextBenchRun(b, s, id)
						b.StartTimer()
					}
					if err := s.AppendTrace(id, i%4, benchLine); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("Trace", func(b *testing.B) {
				s := bs.open(b)
				defer s.Close()
				id := nextBenchRun(b, s, "")
				for i := 0; i < benchLinesPerRun; i++ {
					if err := s.AppendTrace(id, i%4, benchLine); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(benchLinesPerRun * len(benchLine)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lines, err := s.Trace(id, 0)
					if err != nil || len(lines) != benchLinesPerRun/4 {
						b.Fatalf("Trace = %d lines, err %v", len(lines), err)
					}
				}
			})
		})
	}
}
