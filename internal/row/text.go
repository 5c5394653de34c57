package row

import (
	"fmt"
	"strings"
)

// The text table format used on the simulated DFS is a line-oriented,
// comma-separated format with CSV-style quoting:
//
//   - fields are separated by ','
//   - a field containing ',' '"' '\\' or '\n' is wrapped in double quotes;
//     inside quotes, '"' doubles to '""', backslash escapes to '\\\\', and a
//     newline escapes to the two characters '\\n' — an encoded line therefore
//     never contains a physical newline, so files stay line-splittable
//   - NULL encodes as the unquoted empty field; the empty *string* encodes
//     as "" (a quoted empty field), keeping the two distinguishable
//
// This mirrors the "text format on HDFS" storage the paper's experiments
// use for both input tables.

func needsQuoting(s string) bool {
	return s == "" || strings.ContainsAny(s, ",\"\n\\")
}

func escapeQuoted(b *strings.Builder, s string) {
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			b.WriteString(`""`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	b.WriteByte('"')
}

// EncodeField renders one value as a text-format field.
func EncodeField(v Value) string {
	if v.Null {
		return ""
	}
	s := v.String()
	if v.Kind == TypeString && needsQuoting(s) {
		var b strings.Builder
		escapeQuoted(&b, s)
		return b.String()
	}
	return s
}

// EncodeLine renders a row as one text-format line (without newline).
func EncodeLine(r Row) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(EncodeField(v))
	}
	return b.String()
}

// AppendLine appends the encoded row plus a trailing newline to dst and
// returns the extended slice. It avoids intermediate string allocation on
// the hot write path.
func AppendLine(dst []byte, r Row) []byte {
	for i, v := range r {
		if i > 0 {
			dst = append(dst, ',')
		}
		if v.Null {
			continue
		}
		s := v.String()
		if v.Kind == TypeString && needsQuoting(s) {
			dst = append(dst, '"')
			for j := 0; j < len(s); j++ {
				switch s[j] {
				case '"':
					dst = append(dst, '"', '"')
				case '\\':
					dst = append(dst, '\\', '\\')
				case '\n':
					dst = append(dst, '\\', 'n')
				default:
					dst = append(dst, s[j])
				}
			}
			dst = append(dst, '"')
		} else {
			dst = append(dst, s...)
		}
	}
	return append(dst, '\n')
}

// SplitLine splits one text-format line into raw fields, honouring quoting.
// The returned quoted flags report whether each field was quoted (a quoted
// empty field is the empty string; an unquoted one is NULL).
func SplitLine(line string) (fields []string, quoted []bool, err error) {
	return splitLine(line, nil, nil)
}

// splitLine is SplitLine appending to caller-provided slices, so a caller
// with scratch space splits without allocating them.
func splitLine(line string, fields []string, quoted []bool) ([]string, []bool, error) {
	i := 0
	for {
		if i >= len(line) {
			// Trailing empty field (line ends with separator or is empty).
			fields = append(fields, "")
			quoted = append(quoted, false)
			return fields, quoted, nil
		}
		if line[i] == '"' {
			var b strings.Builder
			i++
			for {
				if i >= len(line) {
					return nil, nil, fmt.Errorf("row: unterminated quote in line %q", line)
				}
				if line[i] == '"' {
					if i+1 < len(line) && line[i+1] == '"' {
						b.WriteByte('"')
						i += 2
						continue
					}
					i++
					break
				}
				if line[i] == '\\' {
					if i+1 >= len(line) {
						return nil, nil, fmt.Errorf("row: dangling escape in line %q", line)
					}
					switch line[i+1] {
					case '\\':
						b.WriteByte('\\')
					case 'n':
						b.WriteByte('\n')
					default:
						return nil, nil, fmt.Errorf("row: bad escape \\%c in line %q", line[i+1], line)
					}
					i += 2
					continue
				}
				b.WriteByte(line[i])
				i++
			}
			fields = append(fields, b.String())
			quoted = append(quoted, true)
			if i >= len(line) {
				return fields, quoted, nil
			}
			if line[i] != ',' {
				return nil, nil, fmt.Errorf("row: garbage after closing quote in line %q", line)
			}
			i++
			continue
		}
		j := strings.IndexByte(line[i:], ',')
		if j < 0 {
			fields = append(fields, line[i:])
			quoted = append(quoted, false)
			return fields, quoted, nil
		}
		fields = append(fields, line[i:i+j])
		quoted = append(quoted, false)
		i += j + 1
	}
}

// DecodeLine parses one text-format line into a row conforming to schema.
func DecodeLine(line string, s Schema) (Row, error) {
	// Scratch for the split: the decoded row is the only allocation a line
	// of up to 16 unquoted fields needs.
	var fieldBuf [16]string
	var quotedBuf [16]bool
	fields, quoted, err := splitLine(line, fieldBuf[:0], quotedBuf[:0])
	if err != nil {
		return nil, err
	}
	if len(fields) != s.Len() {
		return nil, fmt.Errorf("row: line has %d fields, schema has %d: %q", len(fields), s.Len(), line)
	}
	out := make(Row, len(fields))
	for i, f := range fields {
		if f == "" && !quoted[i] {
			out[i] = NullOf(s.Cols[i].Type)
			continue
		}
		v, err := String_(f).Coerce(s.Cols[i].Type)
		if err != nil {
			return nil, fmt.Errorf("row: column %q: %w", s.Cols[i].Name, err)
		}
		out[i] = v
	}
	return out, nil
}
