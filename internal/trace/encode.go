package trace

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendEvent appends the JSON encoding of e to b and returns the
// extended buffer. The bytes are exactly those of json.Marshal(e) —
// field order, omitempty, float formatting and HTML-safe string
// escaping included — so every consumer of the event stream (the
// NDJSON Writer, the service's trace tail and run store) can share one
// encoder without a reflective Marshal per event. Like Marshal, it
// fails on an invalid Kind and on NaN or infinite floats; on error the
// returned buffer is b unchanged.
func AppendEvent(b []byte, e Event) ([]byte, error) {
	if e.Kind >= numKinds {
		return b, fmt.Errorf("trace: cannot marshal invalid kind %d", int(e.Kind))
	}
	if !finite(e.Time) || !finite(e.Demand) {
		return b, fmt.Errorf("trace: unsupported float value in event (t=%v, demand=%v)", e.Time, e.Demand)
	}
	out := append(b, `{"kind":"`...)
	out = append(out, kindNames[e.Kind]...)
	out = append(out, `","interval":`...)
	out = strconv.AppendInt(out, int64(e.Interval), 10)
	out = append(out, `,"t":`...)
	out = appendFloat(out, e.Time)
	out = append(out, `,"cluster":`...)
	out = strconv.AppendInt(out, int64(e.Cluster), 10)
	out = append(out, `,"src":`...)
	out = strconv.AppendInt(out, int64(e.Src), 10)
	out = append(out, `,"dst":`...)
	out = strconv.AppendInt(out, int64(e.Dst), 10)
	out = append(out, `,"app":`...)
	out = strconv.AppendInt(out, int64(e.App), 10)
	if e.Demand != 0 {
		out = append(out, `,"demand":`...)
		out = appendFloat(out, e.Demand)
	}
	if e.Target != "" {
		out = append(out, `,"target":`...)
		out = appendString(out, e.Target)
	}
	if e.OK {
		out = append(out, `,"ok":true`...)
	}
	if e.Replaced != 0 {
		out = append(out, `,"replaced":`...)
		out = strconv.AppendInt(out, int64(e.Replaced), 10)
	}
	if e.Lost != 0 {
		out = append(out, `,"lost":`...)
		out = strconv.AppendInt(out, int64(e.Lost), 10)
	}
	return append(out, '}'), nil
}

// appendPhase appends a phase-timing line, {"phase":"<name>","ns":ns} —
// the bytes json.Marshal gives a struct of those two fields; phase names
// are plain ASCII, so they need no escaping.
func appendPhase(b []byte, p Phase, ns int64) []byte {
	b = append(b, `{"phase":"`...)
	b = append(b, p.String()...)
	b = append(b, `","ns":`...)
	b = strconv.AppendInt(b, ns, 10)
	return append(b, '}')
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloat formats a finite float64 the way encoding/json does: ES6
// number-to-string, i.e. 'f' format unless the magnitude is below 1e-6
// or at least 1e21, and then 'e' with the exponent's leading zero
// dropped (1e-07 becomes 1e-7).
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's default
// (HTML-safe) escaping: quotes, backslashes and control characters are
// escaped, as are <, > and &; invalid UTF-8 becomes \ufffd; and U+2028
// and U+2029 are escaped for JSONP safety.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
