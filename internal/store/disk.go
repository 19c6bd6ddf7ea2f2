package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Disk is the durable RunStore: one directory per run under
// <dir>/runs/, holding the run record (run.json, written atomically via
// rename), three append-only NDJSON streams (intervals.ndjson,
// trace.ndjson, cells.ndjson — each line tagged with its cell index),
// and the resume lease (lease.json).
//
// Run IDs are reserved with an atomic mkdir of the run's directory, so
// they are unique across restarts and across replicas sharing the
// directory. A torn final line — the crash window of an append without
// fsync — is treated as truncation: readers stop at the first
// unparsable line, which for checkpoints merely re-runs one cell.
//
// Stream appends are buffered in memory per file and written out one
// write(2) per streamBufSize bytes. A run's buffers are flushed before
// each of its checkpoints (PutCell), record writes (PutRun), reads,
// drops and truncations, and on Close, so a checkpointed cell's stream
// lines always reach the file before its checkpoint line does — the
// invariant resume relies on. A terminal PutRun also closes the run's
// handles. A crash can therefore lose only buffered lines of cells that
// had not checkpointed, which resume truncates and re-runs anyway.
type Disk struct {
	dir string

	mu sync.Mutex
	//ealb:guarded-by(mu)
	seq int64 // high-water mark of reserved sequence numbers
	// streams holds each live run's open append handles and their
	// unwritten lines, so per-event appends neither reopen the file nor
	// issue a write each.
	//ealb:guarded-by(mu)
	streams map[string]*runStreams
}

// stream indexes a run's three append-only stream files.
type stream int

const (
	intervalsStream stream = iota
	traceStream
	cellsStream
	numStreams
)

var streamFiles = [numStreams]string{"intervals.ndjson", "trace.ndjson", "cells.ndjson"}

// streamBufSize is the buffered byte count at which an append writes its
// stream file's buffer out.
const streamBufSize = 64 << 10

// appendFile is one open stream file and its not-yet-written lines.
type appendFile struct {
	f   *os.File
	buf []byte
}

// runStreams is a run's open stream files, indexed by stream (a nil
// file is not open).
type runStreams [numStreams]appendFile

// streamLine is one stored NDJSON stream entry: the cell index plus the
// caller's marshaled line, stored verbatim so it streams back
// byte-identical. appendFrame writes the same bytes by hand; the struct
// is the canonical shape and the decoding fallback.
type streamLine struct {
	Cell int             `json:"cell"`
	Line json.RawMessage `json:"line"`
}

// OpenDisk opens (creating if needed) a disk store rooted at dir and
// scans existing runs to restore the ID high-water mark.
func OpenDisk(dir string) (*Disk, error) {
	d := &Disk{dir: dir, streams: make(map[string]*runStreams)}
	if err := os.MkdirAll(d.runsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	entries, err := os.ReadDir(d.runsDir())
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, e := range entries {
		if seq, ok := parseID(e.Name()); ok && seq > d.seq {
			d.seq = seq
		}
	}
	return d, nil
}

func (d *Disk) runsDir() string         { return filepath.Join(d.dir, "runs") }
func (d *Disk) runDir(id string) string { return filepath.Join(d.runsDir(), id) }

// parseID extracts the sequence number from a run directory name.
func parseID(name string) (int64, bool) {
	rest, ok := strings.CutPrefix(name, "run-")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || seq < 1 {
		return 0, false
	}
	return seq, true
}

// NewID reserves the next unused run ID by atomically creating its
// directory — mkdir fails on an existing name, so two replicas sharing
// the store can never reserve the same ID.
func (d *Disk) NewID() (string, int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		d.seq++
		id := FormatID(d.seq)
		err := os.Mkdir(d.runDir(id), 0o755)
		if err == nil {
			return id, d.seq, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return "", 0, fmt.Errorf("store: reserve %s: %w", id, err)
		}
		// Another replica holds this ID; keep scanning upward.
	}
}

// PutRun writes the record atomically (temp file + rename), creating
// the run directory if the record arrived from another store instance.
// The run's buffered stream lines are flushed first; a terminal record
// also closes the run's stream handles, since nothing appends to a
// finished run.
func (d *Disk) PutRun(rec Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	ferr := d.flushRunLocked(rec.ID)
	if terminalStatus(rec.Status) {
		if err := d.closeRunLocked(rec.ID); ferr == nil {
			ferr = err
		}
	}
	if err := os.MkdirAll(d.runDir(rec.ID), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := atomicWrite(filepath.Join(d.runDir(rec.ID), "run.json"), raw); err != nil {
		return err
	}
	return ferr
}

// GetRun reads the record for id.
func (d *Disk) GetRun(id string) (Record, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.getRunLocked(id)
}

func (d *Disk) getRunLocked(id string) (Record, bool, error) {
	raw, err := os.ReadFile(filepath.Join(d.runDir(id), "run.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return Record{}, false, nil
	}
	if err != nil {
		return Record{}, false, err
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return Record{}, false, fmt.Errorf("store: run %s: corrupt record: %w", id, err)
	}
	return rec, true, nil
}

// ListRuns reads every persisted record in sequence order. Reserved
// directories whose record was never written (a crash between NewID and
// PutRun) are skipped — their IDs stay burned, which is the point.
func (d *Disk) ListRuns() ([]Record, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, err := os.ReadDir(d.runsDir())
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, e := range entries {
		if _, ok := parseID(e.Name()); !ok {
			continue
		}
		rec, ok, err := d.getRunLocked(e.Name())
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, rec)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// append buffers one tagged line for a run's stream file.
func (d *Disk) append(id string, s stream, cell int, line []byte) error {
	framed, err := marshalFrame(cell, line)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appendLocked(id, s, cell, line, framed)
}

// marshalFrame returns the stored frame of a line that is not
// canonical, via json.Marshal — which rejects invalid lines and compacts
// the rest, exactly the bytes the stored frame must carry. It returns
// nil for a canonical line, which appendFrame writes directly.
func marshalFrame(cell int, line []byte) ([]byte, error) {
	if canonicalLine(line) {
		return nil, nil
	}
	raw, err := json.Marshal(streamLine{Cell: cell, Line: json.RawMessage(line)})
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// appendLocked adds a line (or its pre-marshaled frame) to the stream
// file's buffer and writes the buffer out once it holds streamBufSize
// bytes. Caller holds d.mu.
//
//ealb:locked(mu)
func (d *Disk) appendLocked(id string, s stream, cell int, line, framed []byte) error {
	af, err := d.openLocked(id, s)
	if err != nil {
		return err
	}
	if framed != nil {
		af.buf = append(af.buf, framed...)
	} else {
		af.buf = appendFrame(af.buf, cell, line)
	}
	if len(af.buf) >= streamBufSize {
		return af.flush()
	}
	return nil
}

// appendFrame appends the stored form of a canonical line: the bytes of
// json.Marshal(streamLine{cell, line}) plus the newline.
func appendFrame(b []byte, cell int, line []byte) []byte {
	b = append(b, `{"cell":`...)
	b = strconv.AppendInt(b, int64(cell), 10)
	b = append(b, `,"line":`...)
	b = append(b, line...)
	return append(b, "}\n"...)
}

// canonicalLine reports whether json.Marshal would embed line in a
// streamLine verbatim: it is valid JSON (the guard Marshal applies to a
// RawMessage) already in compact, HTML-safe form — no whitespace, no
// <, > or &, no U+2028/U+2029 — so Marshal's re-compaction is the
// identity. Lines from json.Marshal or trace.AppendEvent always are; any
// other line takes the Marshal path. A nil line marshals as null, so it
// is not canonical either.
func canonicalLine(line []byte) bool {
	if line == nil {
		return false
	}
	for i, c := range line {
		if !recompacted[c] {
			continue
		}
		// U+2028 and U+2029 are E2 80 A8 and E2 80 A9; other runes
		// starting with E2 are left alone.
		if c != 0xe2 || i+2 < len(line) && line[i+1] == 0x80 && (line[i+2] == 0xa8 || line[i+2] == 0xa9) {
			return false
		}
	}
	return validJSON(line)
}

// recompacted marks the bytes json.Marshal's compaction of a RawMessage
// may rewrite: whitespace, the HTML-sensitive <, > and &, and the lead
// byte of U+2028/U+2029.
var recompacted = func() (t [256]bool) {
	for _, c := range []byte(" \t\n\r<>&\xe2") {
		t[c] = true
	}
	return t
}()

// openLocked returns the run's append file for s, opening it (and
// creating it if missing) on first use. Caller holds d.mu.
//
//ealb:locked(mu)
func (d *Disk) openLocked(id string, s stream) (*appendFile, error) {
	rs, ok := d.streams[id]
	if !ok {
		rs = new(runStreams)
		d.streams[id] = rs
	}
	af := &rs[s]
	if af.f == nil {
		f, err := os.OpenFile(filepath.Join(d.runDir(id), streamFiles[s]), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		af.f = f
	}
	return af, nil
}

// flush writes the buffered lines out. The buffer is emptied even on
// error: a partial write cannot be retried without duplicating lines.
func (af *appendFile) flush() error {
	if len(af.buf) == 0 {
		return nil
	}
	_, err := af.f.Write(af.buf)
	af.buf = af.buf[:0]
	return err
}

// flushRunLocked writes out every buffered line of the run's streams.
// Caller holds d.mu.
//
//ealb:locked(mu)
func (d *Disk) flushRunLocked(id string) error {
	rs, ok := d.streams[id]
	if !ok {
		return nil
	}
	var first error
	for s := range rs {
		if err := rs[s].flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close flushes and closes the file, leaving af not open.
func (af *appendFile) close() error {
	if af.f == nil {
		return nil
	}
	err := af.flush()
	if cerr := af.f.Close(); err == nil {
		err = cerr
	}
	*af = appendFile{}
	return err
}

// closeStreamLocked flushes and closes one of the run's stream files and
// forgets the run once none is open. Caller holds d.mu.
//
//ealb:locked(mu)
func (d *Disk) closeStreamLocked(id string, s stream) error {
	rs, ok := d.streams[id]
	if !ok {
		return nil
	}
	err := rs[s].close()
	for _, af := range rs {
		if af.f != nil {
			return err
		}
	}
	delete(d.streams, id)
	return err
}

// closeRunLocked flushes, closes and forgets all of the run's stream
// files. Caller holds d.mu.
//
//ealb:locked(mu)
func (d *Disk) closeRunLocked(id string) error {
	rs, ok := d.streams[id]
	if !ok {
		return nil
	}
	var first error
	for s := range rs {
		if err := rs[s].close(); err != nil && first == nil {
			first = err
		}
	}
	delete(d.streams, id)
	return first
}

// readFile returns a stream file's current contents — the run's buffered
// lines flushed first — copied under the lock so callers parse it
// without holding d.mu. A missing file reads as empty.
func (d *Disk) readFile(id string, s stream) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.flushRunLocked(id); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(d.runDir(id), streamFiles[s]))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return raw, err
}

// readStream returns a cell's lines from a run's stream file, stopping
// at the first unparsable (torn) line. The file is parsed outside d.mu,
// and the cell's lines are copied into one compact buffer so the
// result does not pin the whole file.
func (d *Disk) readStream(id string, s stream, cell int) ([][]byte, error) {
	raw, err := d.readFile(id, s)
	if err != nil || raw == nil {
		return nil, err
	}
	var lines [][]byte
	size := 0
	scanStream(raw, func(c int, line, _ []byte) {
		if c == cell {
			lines = append(lines, line)
			size += len(line)
		}
	})
	buf := make([]byte, 0, size)
	for i, line := range lines {
		buf = append(buf, line...)
		lines[i] = buf[len(buf)-len(line) : len(buf) : len(buf)]
	}
	return lines, nil
}

// drop removes a run's stream file (flushing the run's other buffers and
// closing the file's handle first).
func (d *Disk) drop(id string, s stream) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	ferr := d.flushRunLocked(id)
	if err := d.closeStreamLocked(id, s); ferr == nil {
		ferr = err
	}
	err := os.Remove(filepath.Join(d.runDir(id), streamFiles[s]))
	if errors.Is(err, fs.ErrNotExist) {
		return ferr
	}
	if err != nil {
		return err
	}
	return ferr
}

// AppendInterval appends one interval line to a cell's stream.
func (d *Disk) AppendInterval(id string, cell int, line []byte) error {
	return d.append(id, intervalsStream, cell, line)
}

// Intervals returns a cell's interval lines.
func (d *Disk) Intervals(id string, cell int) ([][]byte, error) {
	return d.readStream(id, intervalsStream, cell)
}

// DropIntervals discards the run's interval streams.
func (d *Disk) DropIntervals(id string) error { return d.drop(id, intervalsStream) }

// AppendTrace appends one decision-event line to a cell's trace.
func (d *Disk) AppendTrace(id string, cell int, line []byte) error {
	return d.append(id, traceStream, cell, line)
}

// Trace returns a cell's trace lines.
func (d *Disk) Trace(id string, cell int) ([][]byte, error) {
	return d.readStream(id, traceStream, cell)
}

// TruncateIntervals rewrites the interval stream keeping only cells
// keep accepts.
func (d *Disk) TruncateIntervals(id string, keep func(cell int) bool) error {
	return d.truncateStream(id, intervalsStream, keep)
}

// TruncateTrace rewrites the trace keeping only cells keep accepts.
func (d *Disk) TruncateTrace(id string, keep func(cell int) bool) error {
	return d.truncateStream(id, traceStream, keep)
}

// truncateStream rewrites a stream file keeping only cells keep
// accepts, up to the first unparsable line. The run's buffers are
// flushed and the file's handle closed first: the rewrite replaces the
// file the handle points at.
func (d *Disk) truncateStream(id string, s stream, keep func(cell int) bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.flushRunLocked(id); err != nil {
		return err
	}
	if err := d.closeStreamLocked(id, s); err != nil {
		return err
	}
	path := filepath.Join(d.runDir(id), streamFiles[s])
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	kept := make([]byte, 0, len(raw))
	scanStream(raw, func(cell int, _, frame []byte) {
		if keep(cell) {
			kept = append(kept, frame...)
		}
	})
	return atomicWrite(path, kept)
}

// PutCell appends a completed cell checkpoint. The run's buffered
// interval and trace lines are written out before the checkpoint line,
// and the checkpoint itself before PutCell returns, so a checkpointed
// cell's streams are always complete on disk.
func (d *Disk) PutCell(id string, c CellResult) error {
	framed, err := marshalFrame(c.Cell, c.Result)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.flushRunLocked(id); err != nil {
		return err
	}
	if err := d.appendLocked(id, cellsStream, c.Cell, c.Result, framed); err != nil {
		return err
	}
	return d.flushRunLocked(id)
}

// Cells returns the run's checkpoints. A cell checkpointed twice (a
// resumed run re-running a cell whose checkpoint line was torn) keeps
// the latest line.
func (d *Disk) Cells(id string) ([]CellResult, error) {
	raw, err := d.readFile(id, cellsStream)
	if err != nil || raw == nil {
		return nil, err
	}
	byCell := make(map[int]CellResult)
	scanStream(raw, func(cell int, line, _ []byte) {
		byCell[cell] = CellResult{Cell: cell, Result: line}
	})
	out := make([]CellResult, 0, len(byCell))
	//ealb:allow-nondet iteration order erased by the cell sort below
	for _, c := range byCell {
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out, nil
}

// DropCells discards the run's checkpoints.
func (d *Disk) DropCells(id string) error { return d.drop(id, cellsStream) }

// Claim acquires or renews the run's lease for owner.
func (d *Disk) Claim(id, owner string, ttl time.Duration) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	path := filepath.Join(d.runDir(id), "lease.json")
	var l lease
	if raw, err := os.ReadFile(path); err == nil {
		// A corrupt lease file counts as no lease.
		_ = json.Unmarshal(raw, &l)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return false, err
	}
	now := time.Now()
	if !l.grants(owner, now) {
		return false, nil
	}
	if err := os.MkdirAll(d.runDir(id), 0o755); err != nil {
		return false, err
	}
	raw, err := json.Marshal(lease{Owner: owner, Expires: now.Add(ttl)})
	if err != nil {
		return false, err
	}
	if err := atomicWrite(path, raw); err != nil {
		return false, err
	}
	return true, nil
}

// Release drops the run's lease if owner holds it.
func (d *Disk) Release(id, owner string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	path := filepath.Join(d.runDir(id), "lease.json")
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var l lease
	if err := json.Unmarshal(raw, &l); err == nil && l.Owner != owner {
		return nil
	}
	err = os.Remove(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// Close flushes and closes every open stream file.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	//ealb:allow-nondet handle close order is irrelevant
	for id := range d.streams {
		if err := d.closeRunLocked(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// atomicWrite writes data to path via a temp file + rename so readers
// never observe a half-written file.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
