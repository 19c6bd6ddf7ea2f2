package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func openDisk(t testing.TB, dir string) *Disk {
	t.Helper()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newDiskRun(t testing.TB) (*Disk, string, string) {
	t.Helper()
	dir := t.TempDir()
	d := openDisk(t, dir)
	t.Cleanup(func() { d.Close() })
	id, _, err := d.NewID()
	if err != nil {
		t.Fatal(err)
	}
	return d, dir, id
}

// TestDiskFrameMatchesMarshal: every stored frame is byte-for-byte
// json.Marshal(streamLine{cell, line}) plus a newline — for canonical
// lines written by hand and for lines Marshal has to compact or escape —
// and a line Marshal rejects is rejected.
func TestDiskFrameMatchesMarshal(t *testing.T) {
	d, dir, id := newDiskRun(t)
	lines := [][]byte{
		[]byte(`{"kind":"report","interval":1,"t":60,"cluster":0,"src":3,"dst":-1,"app":-1}`),
		[]byte(`{"a": 1, "b" : [1, 2]}`),
		[]byte(` 17 `),
		[]byte(`"<b>&amp;"`),
		[]byte("\"line\u2028sep\u2029\""),
		[]byte("\"bad\xffutf8\""),
		[]byte(`null`),
		nil,
		[]byte(`-0.5e-7`),
	}
	var want bytes.Buffer
	for i, line := range lines {
		if err := d.AppendTrace(id, i-3, line); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		raw, err := json.Marshal(streamLine{Cell: i - 3, Line: json.RawMessage(line)})
		if err != nil {
			t.Fatal(err)
		}
		want.Write(raw)
		want.WriteByte('\n')
	}
	for _, bad := range [][]byte{[]byte(`{`), {}, []byte(`1 2`), []byte("\"ctl\x01\"")} {
		_, merr := json.Marshal(streamLine{Line: json.RawMessage(bad)})
		if err := d.AppendTrace(id, 0, bad); (err != nil) != (merr != nil) || err == nil {
			t.Fatalf("line %q: append error %v, Marshal error %v", bad, err, merr)
		}
	}
	if _, err := d.Trace(id, 0); err != nil { // flushes
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "runs", id, "trace.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("stored frames drifted:\ngot:  %q\nwant: %q", got, want.Bytes())
	}
}

// openHandles counts the open stream files across all runs.
func (d *Disk) openHandles() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	//ealb:allow-nondet counting is iteration-order-insensitive
	for _, rs := range d.streams {
		for _, af := range rs {
			if af.f != nil {
				n++
			}
		}
	}
	return n
}

// TestDiskClosesHandlesAtTerminal pins the handle-leak fix: a run's
// stream handles stay open while it runs and are flushed, closed and
// forgotten when PutRun records a terminal status — done, failed and
// cancelled alike.
func TestDiskClosesHandlesAtTerminal(t *testing.T) {
	for _, status := range []string{"done", "failed", "cancelled"} {
		t.Run(status, func(t *testing.T) {
			d, _, id := newDiskRun(t)
			if err := d.AppendInterval(id, 0, []byte(`{"i":0}`)); err != nil {
				t.Fatal(err)
			}
			if err := d.AppendTrace(id, 0, []byte(`{"t":0}`)); err != nil {
				t.Fatal(err)
			}
			if err := d.PutCell(id, CellResult{Cell: 0, Result: json.RawMessage(`{}`)}); err != nil {
				t.Fatal(err)
			}
			if err := d.PutRun(Record{ID: id, Status: "running"}); err != nil {
				t.Fatal(err)
			}
			if n := d.openHandles(); n != 3 {
				t.Fatalf("running run holds %d open handles, want 3", n)
			}
			if err := d.PutRun(Record{ID: id, Status: status}); err != nil {
				t.Fatal(err)
			}
			if n := d.openHandles(); n != 0 {
				t.Fatalf("%s run still holds %d open handles", status, n)
			}
			// The streams stay readable from the files.
			if tr, err := d.Trace(id, 0); err != nil || len(tr) != 1 {
				t.Fatalf("trace after close: %q err=%v", tr, err)
			}
		})
	}
}

// TestDiskDurableAtCheckpoint: once PutCell (or a terminal PutRun)
// returns, a second store opened on the same directory — the first one
// never closed, as after a SIGKILL — reads every interval and trace line
// appended for that cell, and the checkpoint itself.
func TestDiskDurableAtCheckpoint(t *testing.T) {
	d, dir, id := newDiskRun(t)
	appendCell := func(cell, n int) (iv, tr [][]byte) {
		for i := 0; i < n; i++ {
			il := []byte(fmt.Sprintf(`{"cell":%d,"interval":%d}`, cell, i))
			tl := []byte(fmt.Sprintf(`{"kind":"report","interval":%d,"src":%d}`, i, cell))
			if err := d.AppendInterval(id, cell, il); err != nil {
				t.Fatal(err)
			}
			if err := d.AppendTrace(id, cell, tl); err != nil {
				t.Fatal(err)
			}
			iv, tr = append(iv, il), append(tr, tl)
		}
		return iv, tr
	}
	check := func(cell int, iv, tr [][]byte) {
		t.Helper()
		d2 := openDisk(t, dir)
		defer d2.Close()
		if got, err := d2.Intervals(id, cell); err != nil || !reflect.DeepEqual(got, iv) {
			t.Fatalf("cell %d intervals seen by a second store: %d lines, want %d (err %v)", cell, len(got), len(iv), err)
		}
		if got, err := d2.Trace(id, cell); err != nil || !reflect.DeepEqual(got, tr) {
			t.Fatalf("cell %d trace seen by a second store: %d lines, want %d (err %v)", cell, len(got), len(tr), err)
		}
	}

	iv0, tr0 := appendCell(0, 50)
	iv1, tr1 := appendCell(1, 20) // cell 1 still running at cell 0's checkpoint
	if err := d.PutCell(id, CellResult{Cell: 0, Result: json.RawMessage(`{"cell":0}`)}); err != nil {
		t.Fatal(err)
	}
	check(0, iv0, tr0)
	d2 := openDisk(t, dir)
	if cells, err := d2.Cells(id); err != nil || len(cells) != 1 || cells[0].Cell != 0 {
		t.Fatalf("checkpoint seen by a second store: %v err=%v", cells, err)
	}
	d2.Close()

	more1, moreTr1 := appendCell(1, 30)
	if err := d.PutRun(Record{ID: id, Status: "failed", Error: "x"}); err != nil {
		t.Fatal(err)
	}
	check(1, append(iv1, more1...), append(tr1, moreTr1...))
}

// oracleScan is the reference stream reader: json.Unmarshal of each
// newline-terminated line into a streamLine, stopping at the first one
// that fails.
func oracleScan(raw []byte) (cells []int, lines [][]byte, frames [][]byte) {
	r := bufio.NewReader(bytes.NewReader(raw))
	for {
		frame, err := r.ReadBytes('\n')
		if len(frame) > 0 && frame[len(frame)-1] == '\n' {
			var sl streamLine
			if json.Unmarshal(frame, &sl) != nil {
				return
			}
			cells = append(cells, sl.Cell)
			lines = append(lines, []byte(sl.Line))
			frames = append(frames, frame)
		}
		if err != nil {
			return
		}
	}
}

// streamSeeds cover the frame shapes scanStream must agree with the
// oracle on: canonical frames, torn and corrupt lines, empty lines,
// CRLF, whitespace, key case and order, duplicate and extra keys, null
// and missing lines, non-integer, overflowing and zero-padded cells.
var streamSeeds = []string{
	"{\"cell\":0,\"line\":{\"a\":1}}\n{\"cell\":1,\"line\":[1,2]}\n{\"cell\":0,\"line\":\"x\"}\n",
	"{\"cell\":0,\"line\":1}\n{\"cell\":1,\"line\":{\"trunc",
	"{\"cell\":0,\"line\":1}\n{\"cell\":1,\"line\":{\"a\":}\n{\"cell\":0,\"line\":2}\n",
	"{\"cell\":0,\"line\":1}\n\n{\"cell\":0,\"line\":2}\n",
	"{\"cell\":0,\"line\":1}\r\n{\"cell\":0,\"line\": 2 }\n{ \"cell\" : 3 , \"line\" : 4 }\n",
	"{\"CELL\":2,\"Line\":5}\n{\"line\":6,\"cell\":2}\n{\"cell\":2,\"line\":7,\"cell\":3}\n",
	"{\"cell\":1,\"line\":1,\"line\":2}\n{\"cell\":1,\"line\":8,\"extra\":true}\n",
	"{\"cell\":4,\"line\":null}\n{\"cell\":4}\n{\"line\":9}\n{\"cell\":null,\"line\":10}\n",
	"{\"cell\":1.0,\"line\":1}\n{\"cell\":0,\"line\":2}\n",
	"{\"cell\":1e0,\"line\":1}\n",
	"{\"cell\":99999999999999999999,\"line\":1}\n",
	"{\"cell\":-0,\"line\":1}\n{\"cell\":-7,\"line\":2}\n{\"cell\":007,\"line\":3}\n",
	"{\"cell\":0,\"line\":\"bad\xff\xfeutf8\"}\n{\"cell\":0,\"line\":\"<&>\u2028\"}\n",
	"{\"cell\":0,\"line\":\"ctl\x01\"}\n",
	"{\"cell\":0,\"line\":}\n{\"cell\":0,\"line\":1}}\n",
	"{\"cell\":123456789012345678,\"line\":{\"k\":[true,false,null,-1.5e+3]}}\n",
	"",
	"\n",
}

// checkScan runs raw through scanStream and, via d holding it as the
// trace and checkpoint files of a run under dir, Trace for every cell,
// Cells and TruncateTrace, and requires each to agree with oracleScan.
func checkScan(t *testing.T, d *Disk, dir string, raw []byte) {
	t.Helper()
	wantCells, wantLines, wantFrames := oracleScan(raw)

	var gotCells []int
	var gotLines, gotFrames [][]byte
	scanStream(raw, func(cell int, line, frame []byte) {
		gotCells = append(gotCells, cell)
		gotLines = append(gotLines, line)
		gotFrames = append(gotFrames, frame)
	})
	if !reflect.DeepEqual(gotCells, wantCells) || !equalLines(gotLines, wantLines) || !equalLines(gotFrames, wantFrames) {
		t.Fatalf("scanStream disagrees with json.Unmarshal on %q:\ngot  cells %v lines %q\nwant cells %v lines %q",
			raw, gotCells, gotLines, wantCells, wantLines)
	}

	const id = "run-000001"
	runDir := filepath.Join(dir, "runs", id)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"trace.ndjson", "cells.ndjson"} {
		if err := os.WriteFile(filepath.Join(runDir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	perCell := make(map[int][][]byte)
	latest := make(map[int][]byte)
	for i, c := range wantCells {
		perCell[c] = append(perCell[c], wantLines[i])
		latest[c] = wantLines[i]
	}
	for c, want := range perCell {
		got, err := d.Trace(id, c)
		if err != nil || !equalLines(got, want) {
			t.Fatalf("Trace(cell %d) on %q = %q (err %v), want %q", c, raw, got, err, want)
		}
	}
	cells, err := d.Cells(id)
	if err != nil || len(cells) != len(latest) {
		t.Fatalf("Cells on %q = %v (err %v), want %d cells", raw, cells, err, len(latest))
	}
	for _, c := range cells {
		if !bytes.Equal(c.Result, latest[c.Cell]) {
			t.Fatalf("Cells on %q: cell %d = %q, want %q", raw, c.Cell, c.Result, latest[c.Cell])
		}
	}
	even := func(cell int) bool { return cell%2 == 0 }
	if err := d.TruncateTrace(id, even); err != nil {
		t.Fatal(err)
	}
	var wantKept []byte
	for i, c := range wantCells {
		if even(c) {
			wantKept = append(wantKept, wantFrames[i]...)
		}
	}
	if kept, err := os.ReadFile(filepath.Join(runDir, "trace.ndjson")); err != nil || !bytes.Equal(kept, wantKept) {
		t.Fatalf("TruncateTrace on %q kept %q (err %v), want %q", raw, kept, err, wantKept)
	}
}

func equalLines(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// validSeeds are JSON texts on both sides of each grammar rule, for
// validJSON's agreement with json.Valid.
var validSeeds = []string{
	`0`, `-0`, `01`, `-`, `1.`, `1.5`, `.5`, `1e5`, `1E+5`, `1e-05`, `1e`, `1e+`, `-1.5e3x`,
	`true`, `tru`, `truex`, `false`, `null`, `nul`, ` null `, "\tnull\r\n", ``, ` `,
	`""`, `"a\"b"`, `"\u00e9\uD834"`, `"\u12G4"`, `"\u12"`, `"\x"`, "\"ctl\x01\"", "\"bad\xff\"", `"open`,
	`{}`, `{ }`, `{"a":1}`, `{"a" : [1, {"b": null}] }`, `{"a":1,}`, `{"a"}`, `{1:2}`, `{"a":1 "b":2}`,
	`[]`, `[1,2]`, `[1,]`, `[,1]`, `[1 2]`, `[`, `]`, `[[[]]]`, `1 2`, `{}{}`,
}

func TestValidJSONMatchesValid(t *testing.T) {
	for _, s := range validSeeds {
		if got, want := validJSON([]byte(s)), json.Valid([]byte(s)); got != want {
			t.Errorf("validJSON(%q) = %v, json.Valid says %v", s, got, want)
		}
	}
	for _, depth := range []int{maxNesting, maxNesting + 1} {
		deep := append(bytes.Repeat([]byte("["), depth), bytes.Repeat([]byte("]"), depth)...)
		if got, want := validJSON(deep), json.Valid(deep); got != want {
			t.Errorf("validJSON at depth %d = %v, json.Valid says %v", depth, got, want)
		}
	}
}

func TestScanStreamMatchesUnmarshal(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir)
	defer d.Close()
	for _, raw := range streamSeeds {
		checkScan(t, d, dir, []byte(raw))
	}
	// The nesting-depth edge: a line nested exactly to encoding/json's
	// limit is valid on its own but not inside the frame.
	for _, depth := range []int{maxNesting - 1, maxNesting} {
		deep := bytes.Repeat([]byte("["), depth)
		deep = append(deep, bytes.Repeat([]byte("]"), depth)...)
		checkScan(t, d, dir, []byte(fmt.Sprintf("{\"cell\":0,\"line\":%s}\n{\"cell\":0,\"line\":1}\n", deep)))
	}
}

// FuzzDiskStream is differential: for arbitrary stream-file bytes, the
// disk store's reader returns exactly what a json.Unmarshal-per-line
// reader returns, for every cell, stopping at the same torn or corrupt
// line.
func FuzzDiskStream(f *testing.F) {
	for _, raw := range streamSeeds {
		f.Add([]byte(raw))
	}
	for _, raw := range validSeeds {
		f.Add([]byte(raw))
	}
	dir := f.TempDir()
	d := openDisk(f, dir)
	defer d.Close()
	f.Fuzz(func(t *testing.T, raw []byte) {
		if validJSON(raw) != json.Valid(raw) {
			t.Fatalf("validJSON(%q) = %v, json.Valid says %v", raw, validJSON(raw), json.Valid(raw))
		}
		checkScan(t, d, dir, raw)
	})
}
