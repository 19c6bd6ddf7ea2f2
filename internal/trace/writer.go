package trace

import (
	"io"
	"sync"
	"time"
)

// Writer is an NDJSON tracer: one JSON object per line, events and
// phase timings interleaved in emission order. Event lines carry a
// "kind" field, phase lines a "phase" field ({"phase":"plan","ns":N}),
// so a consumer can split the stream without schema negotiation. Lines
// are encoded by AppendEvent and appendPhase into a 64 KiB buffer that
// is written out when full; all of it is mutex-serialized (a farm's
// clusters trace concurrently). Errors are sticky — the first encoding
// or write error stops all further output and is reported by Flush.
type Writer struct {
	mu sync.Mutex
	//ealb:guarded-by(mu)
	w io.Writer
	//ealb:guarded-by(mu)
	buf []byte
	//ealb:guarded-by(mu)
	err error
}

const writerBufSize = 1 << 16

// NewWriter returns a tracer writing NDJSON to w. The caller owns w and
// must call Flush before closing it.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, writerBufSize)}
}

// Event implements Tracer.
func (w *Writer) Event(e Event) {
	w.mu.Lock()
	if w.err == nil {
		var err error
		if w.buf, err = AppendEvent(w.buf, e); err != nil {
			w.err = err
		} else {
			w.endLineLocked()
		}
	}
	w.mu.Unlock()
}

// Phase implements Tracer.
func (w *Writer) Phase(p Phase, d time.Duration) {
	w.mu.Lock()
	if w.err == nil {
		w.buf = appendPhase(w.buf, p, int64(d))
		w.endLineLocked()
	}
	w.mu.Unlock()
}

// endLineLocked terminates the buffered line and writes the buffer out
// once it reaches its capacity. Caller holds w.mu.
//
//ealb:locked(mu)
func (w *Writer) endLineLocked() {
	w.buf = append(w.buf, '\n')
	if len(w.buf) >= writerBufSize {
		w.flushLocked()
	}
}

// flushLocked writes out the buffer, recording the first error.
// Caller holds w.mu.
//
//ealb:locked(mu)
func (w *Writer) flushLocked() {
	if len(w.buf) == 0 {
		return
	}
	if _, err := w.w.Write(w.buf); err != nil {
		w.err = err
	}
	w.buf = w.buf[:0]
}

// Flush drains the buffer and returns the first error encountered by
// any write, if any.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.flushLocked()
	}
	return w.err
}
