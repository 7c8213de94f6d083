// Spill codec: the serialization the cluster's disk tier uses to
// park block-store values in local files. It shares the disk-shuffle
// value encoding (appendValue / decodeValue, and with them the
// DiskMarshaler hook engine values like columnar partitions and
// partial aggregation states implement), so any value that can cross
// a disk shuffle can also spill.
package shuffle

import (
	"encoding/binary"
	"fmt"
	"io"

	"shark/internal/cluster"
	"shark/internal/row"
)

func init() { cluster.RegisterSpillCodec(sparkSpillCodec{}) }

// Spill block layouts, selected by the first byte:
//
//	'P' — a []Pair (memory-mode shuffle bucket): varint count, then
//	      per pair the key as a one-field binary row and the encoded
//	      value.
//	'S' — a []any (a materialized RDD cache partition): varint count,
//	      then per element a kind byte — 'p' for a Pair (key row +
//	      value), 'v' for any other value.
const (
	spillPairs = 'P'
	spillSlice = 'S'
	elemPair   = 'p'
	elemValue  = 'v'
)

type sparkSpillCodec struct{}

// EncodeSpill implements cluster.SpillCodec. Unsupported value types
// (including unsupported element types inside a []any — EncodeBinary
// panics on them, and the recover is the last guard that turns that
// into an error) are "unspillable": the disk tier drops the block like
// a plain eviction.
func (sparkSpillCodec) EncodeSpill(v any) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("shuffle: spill encode: %v", r)
		}
	}()
	switch x := v.(type) {
	case []Pair:
		out = append(out, spillPairs)
		out = binary.AppendUvarint(out, uint64(len(x)))
		for _, p := range x {
			out = row.EncodeBinary(out, row.Row{p.K})
			out = appendValue(out, p.V)
		}
		return out, nil
	case []any:
		out = append(out, spillSlice)
		out = binary.AppendUvarint(out, uint64(len(x)))
		for _, e := range x {
			if p, ok := e.(Pair); ok {
				out = append(out, elemPair)
				out = row.EncodeBinary(out, row.Row{p.K})
				out = appendValue(out, p.V)
				continue
			}
			out = append(out, elemValue)
			out = appendValue(out, e)
		}
		return out, nil
	}
	return nil, fmt.Errorf("shuffle: unspillable block type %T", v)
}

// DecodeSpill implements cluster.SpillCodec. Corrupt bytes are an
// error from decodeSpill; the recover is only the last guard against a
// decoder bug.
func (sparkSpillCodec) DecodeSpill(data []byte) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("shuffle: spill decode: %v", r)
		}
	}()
	return decodeSpill(data)
}

func decodeSpill(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	kind, data := data[0], data[1:]
	n, hl := binary.Uvarint(data)
	if hl <= 0 {
		return nil, io.ErrUnexpectedEOF
	}
	data = data[hl:]
	// Every element costs at least one encoded byte, so the element
	// count can never exceed the remaining payload: bound it before
	// the capacity reservations below, the same hostile-count rule
	// the wire codec follows.
	if n > uint64(len(data)) {
		return nil, io.ErrUnexpectedEOF
	}
	pair := func() (Pair, error) {
		k, used, err := row.DecodeBinary(data)
		if err == nil && len(k) != 1 {
			err = fmt.Errorf("shuffle: spilled key row has %d fields", len(k))
		}
		if err != nil {
			return Pair{}, err
		}
		v, vused, err := decodeValue(data[used:])
		if err != nil {
			return Pair{}, err
		}
		data = data[used+vused:]
		return Pair{K: k[0], V: v}, nil
	}
	switch kind {
	case spillPairs:
		pairs := make([]Pair, 0, n)
		for i := uint64(0); i < n; i++ {
			p, err := pair()
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, p)
		}
		return pairs, nil
	case spillSlice:
		elems := make([]any, 0, n)
		for i := uint64(0); i < n; i++ {
			if len(data) == 0 {
				return nil, io.ErrUnexpectedEOF
			}
			ek := data[0]
			data = data[1:]
			switch ek {
			case elemPair:
				p, err := pair()
				if err != nil {
					return nil, err
				}
				elems = append(elems, p)
			case elemValue:
				v, used, err := decodeValue(data)
				if err != nil {
					return nil, err
				}
				data = data[used:]
				elems = append(elems, v)
			default:
				return nil, fmt.Errorf("shuffle: bad spill element kind %q", ek)
			}
		}
		return elems, nil
	}
	return nil, fmt.Errorf("shuffle: bad spill block kind %q", kind)
}
