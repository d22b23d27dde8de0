package main

// A minimal reader for the gzipped protocol-buffer CPU profiles that
// runtime/pprof writes: just enough of profile.proto to name each
// sample's leaf function and weight.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// profileLeaves decodes a runtime/pprof CPU profile and returns each
// sample's leaf function name (the innermost inlined frame of its first
// location) with its sample count.
func profileLeaves(gz []byte) (leaves []string, counts []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc   uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
		fieldErr error
	)
	fieldErr = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch {
				case num == 1 && first:
					ids := packedOrOne(wt, v, b)
					if len(ids) > 0 {
						s.loc, first = ids[0], false
					}
				case num == 2 && s.count == 0:
					if vals := packedOrOne(wt, v, b); len(vals) > 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !haveLine: // first Line is the leaf
					haveLine = true
					return eachField(b, func(num, wt int, v uint64, b []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if fieldErr != nil {
		return nil, nil, fmt.Errorf("profile: %w", fieldErr)
	}
	for _, s := range samples {
		name := "?"
		if fn, ok := locFunc[s.loc]; ok {
			if si, ok := funcName[fn]; ok && si >= 0 && int(si) < len(strs) {
				name = strs[si]
			}
		}
		leaves = append(leaves, name)
		counts = append(counts, s.count)
	}
	return leaves, counts, nil
}

var errTruncated = errors.New("truncated protocol buffer")

// eachField walks the fields of one protocol-buffer message, passing
// varint values in v and length-delimited payloads in b.
func eachField(buf []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packedOrOne returns a repeated varint field's values, whether it was
// written packed (one length-delimited run) or as a single varint.
func packedOrOne(wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
