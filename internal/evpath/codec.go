// Package evpath is a from-scratch reimplementation of the slice of the
// EVPath messaging library that FlexIO depends on (Section II.C/E of the
// paper): data marshaling for typed messages (EVPath uses FFS; here a
// compact self-describing binary codec), point-to-point connections over
// pluggable transports (in-process channels, the shared-memory transport
// of internal/shm, the RDMA transport of internal/rdma, and framed TCP/TLS
// sockets), and the event type whose filter functions host mobile data
// conditioning plug-ins.
package evpath

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Wire type tags. The codec is self-describing: each field carries its
// name, tag, and length, so readers can decode messages from writers with
// unknown schema versions (FFS's central property).
const (
	tagInt64 byte = iota + 1
	tagUint64
	tagFloat64
	tagString
	tagBytes
	tagInt64Slice
	tagFloat64Slice
	tagBool
)

// ErrCorrupt reports a malformed wire message.
var ErrCorrupt = errors.New("evpath: corrupt message")

// Record is a typed field map — the unit of marshaling. Field values are
// restricted to the codec's wire types.
type Record map[string]any

// Encode marshals a record. Fields are written in sorted name order so
// encoding is deterministic (important for tests and for digest-based
// dedup in the monitor).
func Encode(rec Record) ([]byte, error) {
	names := make([]string, 0, len(rec))
	for k := range rec {
		names = append(names, k)
	}
	sort.Strings(names)
	buf := make([]byte, 0, 64)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		var err error
		buf, err = appendValue(buf, rec[name])
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", name, err)
		}
	}
	return buf, nil
}

func appendValue(buf []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case int64:
		buf = append(buf, tagInt64)
		buf = binary.AppendVarint(buf, x)
	case int:
		buf = append(buf, tagInt64)
		buf = binary.AppendVarint(buf, int64(x))
	case uint64:
		buf = append(buf, tagUint64)
		buf = binary.AppendUvarint(buf, x)
	case float64:
		buf = append(buf, tagFloat64)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	case bool:
		buf = append(buf, tagBool)
		if x {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case string:
		buf = append(buf, tagString)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		buf = append(buf, x...)
	case []byte:
		buf = append(buf, tagBytes)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		buf = append(buf, x...)
	case []int64:
		buf = append(buf, tagInt64Slice)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		for _, e := range x {
			buf = binary.AppendVarint(buf, e)
		}
	case []float64:
		buf = append(buf, tagFloat64Slice)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		for _, e := range x {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e))
		}
	default:
		return nil, fmt.Errorf("evpath: unsupported field type %T", v)
	}
	return buf, nil
}

// Decode unmarshals a record produced by Encode.
func Decode(buf []byte) (Record, error) {
	rec := make(Record)
	n, off := binary.Uvarint(buf)
	if off <= 0 {
		return nil, ErrCorrupt
	}
	pos := off
	for i := uint64(0); i < n; i++ {
		nameLen, adv := binary.Uvarint(buf[pos:])
		if adv <= 0 || pos+adv+int(nameLen) > len(buf) {
			return nil, ErrCorrupt
		}
		pos += adv
		name := string(buf[pos : pos+int(nameLen)])
		pos += int(nameLen)
		var (
			v   any
			err error
		)
		v, pos, err = readValue(buf, pos)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", name, err)
		}
		rec[name] = v
	}
	return rec, nil
}

func readValue(buf []byte, pos int) (any, int, error) {
	if pos >= len(buf) {
		return nil, pos, ErrCorrupt
	}
	tag := buf[pos]
	pos++
	switch tag {
	case tagInt64:
		x, adv := binary.Varint(buf[pos:])
		if adv <= 0 {
			return nil, pos, ErrCorrupt
		}
		return x, pos + adv, nil
	case tagUint64:
		x, adv := binary.Uvarint(buf[pos:])
		if adv <= 0 {
			return nil, pos, ErrCorrupt
		}
		return x, pos + adv, nil
	case tagFloat64:
		if pos+8 > len(buf) {
			return nil, pos, ErrCorrupt
		}
		x := math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
		return x, pos + 8, nil
	case tagBool:
		if pos >= len(buf) {
			return nil, pos, ErrCorrupt
		}
		return buf[pos] != 0, pos + 1, nil
	case tagString:
		n, adv := binary.Uvarint(buf[pos:])
		if adv <= 0 || pos+adv+int(n) > len(buf) {
			return nil, pos, ErrCorrupt
		}
		pos += adv
		return string(buf[pos : pos+int(n)]), pos + int(n), nil
	case tagBytes:
		n, adv := binary.Uvarint(buf[pos:])
		if adv <= 0 || pos+adv+int(n) > len(buf) {
			return nil, pos, ErrCorrupt
		}
		pos += adv
		out := make([]byte, n)
		copy(out, buf[pos:pos+int(n)])
		return out, pos + int(n), nil
	case tagInt64Slice:
		n, adv := binary.Uvarint(buf[pos:])
		if adv <= 0 {
			return nil, pos, ErrCorrupt
		}
		pos += adv
		out := make([]int64, n)
		for i := range out {
			x, a := binary.Varint(buf[pos:])
			if a <= 0 {
				return nil, pos, ErrCorrupt
			}
			out[i] = x
			pos += a
		}
		return out, pos, nil
	case tagFloat64Slice:
		n, adv := binary.Uvarint(buf[pos:])
		if adv <= 0 || pos+adv+int(n)*8 > len(buf) {
			return nil, pos, ErrCorrupt
		}
		pos += adv
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
			pos += 8
		}
		return out, pos, nil
	}
	return nil, pos, fmt.Errorf("%w: unknown tag %d", ErrCorrupt, tag)
}

// Event is the unit the transports move: typed metadata plus an opaque
// bulk payload (the simulation data itself is never re-marshaled field by
// field — only its descriptive metadata is).
type Event struct {
	Meta Record
	Data []byte
}

// FilterFunc transforms an event; returning nil drops it. It is what an
// EVPath filter stone runs: data conditioning plug-ins are installed as
// filter functions on either end of a connection.
type FilterFunc func(ev *Event) (*Event, error)

// EncodeEvent frames an event for the wire: uvarint meta length, encoded
// meta, then raw data.
func EncodeEvent(ev *Event) ([]byte, error) {
	meta, err := Encode(ev.Meta)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(meta)+len(ev.Data)+10)
	buf = binary.AppendUvarint(buf, uint64(len(meta)))
	buf = append(buf, meta...)
	buf = append(buf, ev.Data...)
	return buf, nil
}

// DecodeEvent parses a framed event. Data aliases buf.
func DecodeEvent(buf []byte) (*Event, error) {
	n, adv := binary.Uvarint(buf)
	if adv <= 0 || adv+int(n) > len(buf) {
		return nil, ErrCorrupt
	}
	meta, err := Decode(buf[adv : adv+int(n)])
	if err != nil {
		return nil, err
	}
	return &Event{Meta: meta, Data: buf[adv+int(n):]}, nil
}

// Typed field accessors with comma-ok semantics; they tolerate the int64/
// uint64 distinction the codec preserves.

// GetInt extracts an integer field.
func (r Record) GetInt(name string) (int64, bool) {
	switch v := r[name].(type) {
	case int64:
		return v, true
	case uint64:
		return int64(v), true
	}
	return 0, false
}

// GetFloat extracts a float field.
func (r Record) GetFloat(name string) (float64, bool) {
	v, ok := r[name].(float64)
	return v, ok
}

// GetString extracts a string field.
func (r Record) GetString(name string) (string, bool) {
	v, ok := r[name].(string)
	return v, ok
}

// GetBytes extracts a byte-slice field.
func (r Record) GetBytes(name string) ([]byte, bool) {
	v, ok := r[name].([]byte)
	return v, ok
}

// GetBool extracts a boolean field.
func (r Record) GetBool(name string) (bool, bool) {
	v, ok := r[name].(bool)
	return v, ok
}

// GetInts extracts an int64-slice field.
func (r Record) GetInts(name string) ([]int64, bool) {
	v, ok := r[name].([]int64)
	return v, ok
}

// GetFloats extracts a float64-slice field.
func (r Record) GetFloats(name string) ([]float64, bool) {
	v, ok := r[name].([]float64)
	return v, ok
}
