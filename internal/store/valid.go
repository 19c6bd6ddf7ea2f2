package store

// validJSON reports whether b is a single valid JSON value, optionally
// surrounded by whitespace — the verdict of json.Valid, including its
// acceptance of invalid UTF-8 inside strings and its nesting-depth
// limit, reached by a plain recursive descent instead of the
// encoding/json scanner's per-byte state machine (several times faster
// on stream lines). FuzzDiskStream checks the two agree.
func validJSON(b []byte) bool {
	i, ok := scanValue(b, skipSpace(b, 0), 0)
	return ok && skipSpace(b, i) == len(b)
}

// maxNesting is encoding/json's nesting-depth limit.
const maxNesting = 10000

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scanValue scans the value starting at b[i], depth containers deep,
// returning the index just past it.
func scanValue(b []byte, i, depth int) (int, bool) {
	if i >= len(b) {
		return i, false
	}
	switch c := b[i]; {
	case c == '"':
		return scanString(b, i)
	case c == '{' || c == '[':
		return scanContainer(b, i, depth)
	case c == '-' || isDigit(c):
		return scanNumber(b, i)
	case c == 't':
		return scanLiteral(b, i, "true")
	case c == 'f':
		return scanLiteral(b, i, "false")
	case c == 'n':
		return scanLiteral(b, i, "null")
	}
	return i, false
}

// scanContainer scans an object or array opening at b[i].
func scanContainer(b []byte, i, depth int) (int, bool) {
	if depth >= maxNesting {
		return i, false
	}
	object := b[i] == '{'
	end := byte(']')
	if object {
		end = '}'
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == end {
		return i + 1, true
	}
	for {
		var ok bool
		if object {
			if i >= len(b) || b[i] != '"' {
				return i, false
			}
			if i, ok = scanString(b, i); !ok {
				return i, false
			}
			i = skipSpace(b, i)
			if i >= len(b) || b[i] != ':' {
				return i, false
			}
			i = skipSpace(b, i+1)
		}
		if i, ok = scanValue(b, i, depth+1); !ok {
			return i, false
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return i, false
		}
		switch b[i] {
		case end:
			return i + 1, true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return i, false
		}
	}
}

// plainString marks the bytes a string may hold unescaped: everything
// but control characters, the quote and the backslash.
var plainString = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString scans a string opening at b[i]: control characters must be
// escaped, escapes must be one of JSON's, and any other byte — invalid
// UTF-8 included — is accepted, as encoding/json accepts it.
func scanString(b []byte, i int) (int, bool) {
	for i++; i < len(b); i++ {
		for i < len(b) && plainString[b[i]] {
			i++
		}
		if i >= len(b) {
			break
		}
		switch c := b[i]; {
		case c == '"':
			return i + 1, true
		case c < 0x20:
			return i, false
		case c == '\\':
			i++
			if i >= len(b) {
				return i, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 {
					return i, false
				}
				for _, h := range b[i+1 : i+5] {
					if !isDigit(h) && !('a' <= h && h <= 'f') && !('A' <= h && h <= 'F') {
						return i, false
					}
				}
				i += 4
			default:
				return i, false
			}
		}
	}
	return i, false
}

// scanNumber scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func scanNumber(b []byte, i int) (int, bool) {
	if b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b) || !isDigit(b[i]):
		return i, false
	case b[i] == '0':
		i++
	default:
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return i, false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return i, false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	return i, true
}

func scanLiteral(b []byte, i int, lit string) (int, bool) {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}
