package row

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary row record: a compact, length-prefixed encoding of one row,
// used as the record codec of the §8 message-log transfer (internal/stream
// MessageLog) and as a canonical byte key in tests. It is not a wire
// format — the streaming transfer ships columnar block frames (block.go).
//
// Record layout (all little-endian):
//
//	uint32  record length (bytes after this header)
//	per value:
//	  uint8   tag: 0=NULL-int 1=NULL-float 2=NULL-string 3=NULL-bool
//	               4=int 5=float 6=string 7=bool
//	  payload int: varint-free int64 (8 bytes); float: IEEE754 bits;
//	          string: uint32 length + bytes; bool: 1 byte

const (
	tagNullBase = 0
	tagIntV     = 4
	tagFloatV   = 5
	tagStringV  = 6
	tagBoolV    = 7
)

// AppendBinary appends the binary record of the row (including the length
// prefix) to dst.
func AppendBinary(dst []byte, r Row) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	for _, v := range r {
		if v.Null {
			dst = append(dst, byte(tagNullBase+int(v.Kind)))
			continue
		}
		switch v.Kind {
		case TypeInt:
			dst = append(dst, tagIntV)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i))
		case TypeFloat:
			dst = append(dst, tagFloatV)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
		case TypeString:
			dst = append(dst, tagStringV)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.s)))
			dst = append(dst, v.s...)
		case TypeBool:
			dst = append(dst, tagBoolV)
			if v.b {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// DecodeBinary decodes one record body (without the length prefix) into a
// row.
func DecodeBinary(body []byte) (Row, error) {
	var out Row
	i := 0
	for i < len(body) {
		tag := body[i]
		i++
		switch {
		case tag < 4:
			out = append(out, NullOf(Type(tag)))
		case tag == tagIntV:
			if i+8 > len(body) {
				return nil, fmt.Errorf("row: truncated int payload")
			}
			out = append(out, Int(int64(binary.LittleEndian.Uint64(body[i:]))))
			i += 8
		case tag == tagFloatV:
			if i+8 > len(body) {
				return nil, fmt.Errorf("row: truncated float payload")
			}
			out = append(out, Float(math.Float64frombits(binary.LittleEndian.Uint64(body[i:]))))
			i += 8
		case tag == tagStringV:
			if i+4 > len(body) {
				return nil, fmt.Errorf("row: truncated string length")
			}
			n := int(binary.LittleEndian.Uint32(body[i:]))
			i += 4
			if i+n > len(body) {
				return nil, fmt.Errorf("row: truncated string payload")
			}
			out = append(out, String_(string(body[i:i+n])))
			i += n
		case tag == tagBoolV:
			if i >= len(body) {
				return nil, fmt.Errorf("row: truncated bool payload")
			}
			out = append(out, Bool(body[i] != 0))
			i++
		default:
			return nil, fmt.Errorf("row: unknown value tag %d", tag)
		}
	}
	return out, nil
}
