package store

import (
	"bytes"
	"encoding/json"
)

// scanStream calls fn with the cell, the caller's line (aliasing raw)
// and the whole stored frame (newline included) of each stored line of
// a stream file, in order. It stops at the first line that is torn (no
// trailing newline) or does not decode as a streamLine — exactly where
// a json.Unmarshal of each line would stop. Frames in the canonical
// shape appendFrame writes are split by hand; anything else is decoded
// by json.Unmarshal.
func scanStream(raw []byte, fn func(cell int, line, frame []byte)) {
	for {
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			return // torn (or no) final line
		}
		frame := raw[:nl+1]
		raw = raw[nl+1:]
		cell, line, ok := splitFrame(frame)
		if !ok {
			var sl streamLine
			if json.Unmarshal(frame, &sl) != nil {
				return // torn or corrupt line: treat the rest as truncated
			}
			cell, line = sl.Cell, sl.Line
		}
		fn(cell, line, frame)
	}
}

// splitFrame parses a frame of the exact form
// {"cell":N,"line":X}\n — N a JSON integer that fits in an int and X
// a valid JSON value with no surrounding whitespace — returning N and
// X as json.Unmarshal into a streamLine would. It reports false for
// anything else, which the caller hands to json.Unmarshal.
func splitFrame(frame []byte) (cell int, line []byte, ok bool) {
	const head, mid = `{"cell":`, `,"line":`
	rest, found := bytes.CutPrefix(frame, []byte(head))
	if !found {
		return 0, nil, false
	}
	neg := len(rest) > 0 && rest[0] == '-'
	if neg {
		rest = rest[1:]
	}
	digits := 0
	var n int64
	for digits < len(rest) && rest[digits] >= '0' && rest[digits] <= '9' {
		n = n*10 + int64(rest[digits]-'0')
		digits++
	}
	// At most 18 digits cannot overflow; a leading zero is valid JSON
	// only as the single digit 0.
	if digits == 0 || digits > 18 || (rest[0] == '0' && digits > 1) {
		return 0, nil, false
	}
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		return 0, nil, false // overflows int: json.Unmarshal rejects it
	}
	rest, found = bytes.CutPrefix(rest[digits:], []byte(mid))
	if !found || len(rest) < 3 || rest[len(rest)-2] != '}' {
		return 0, nil, false
	}
	line = rest[:len(rest)-2]
	if isSpace(line[0]) || isSpace(line[len(line)-1]) {
		return 0, nil, false
	}
	// X sits one container deep inside the frame, which counts toward
	// the nesting limit.
	if end, valid := scanValue(line, 0, 1); !valid || end != len(line) {
		return 0, nil, false
	}
	return int(n), line, true
}
