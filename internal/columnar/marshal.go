package columnar

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"shark/internal/row"
)

// PartitionTag is the DiskMarshaler tag of a sealed partition; the
// matching decoder is registered by the memtable package (the producer
// of columnar cache partitions).
const PartitionTag = "columnar.Partition"

// A partition crosses a disk boundary (the spill tier, a disk-mode
// shuffle) in its encoded form: each column's typed slices are written
// as they are, so neither side boxes a value, searches a run or
// re-picks a compression scheme. Fixed-width numbers are little-endian,
// counts are uvarints:
//
//	partition := uvarint(ncols) {uvarint(len) name, byte(type)}*ncols
//	             uvarint(N) column*ncols
//	column    := byte(encoding) nulls body stats
//	nulls     := 0 | 1 word[(N+63)/64]
//	body      := raw int      int64[N]
//	           | rle int      uvarint(runs) int64[runs] uint32[runs] (run ends)
//	           | bitpack int  int64(base) byte(width) word[(N*width+63)/64]
//	           | dict int     uvarint(len) int64[len] byte(width) word[(N*width+63)/64]
//	           | raw float    float64[N]
//	           | rle float    uvarint(runs) float64[runs] uint32[runs]
//	           | raw string   uint32[N+1] (offsets) byte[offsets[N]]
//	           | dict string  uvarint(len) {uvarint(len) byte*}*len byte(width) word[...]
//	           | bitmap       word[(N+63)/64]
//	stats     := value(min) value(max) uvarint(nullCount)
//	             uvarint(distinct+1) typed*distinct   (0: not tracked)
//	value     := 0 | 1 typed
//
// typed is the column type's value class: 8 bytes for int64/float64,
// uvarint(len) bytes for a string, one byte for a bool.
const (
	encRawInt byte = iota + 1
	encRLEInt
	encPackedInt
	encDictInt
	encRawFloat
	encRLEFloat
	encRawString
	encDictString
	encBitmap
)

// MarshalShuffle writes the partition in its encoded form,
// implementing the shuffle package's DiskMarshaler structurally.
func (p *Partition) MarshalShuffle() (string, []byte) {
	// The body is about SizeBytes; reserve for headers and stats too.
	size := p.SizeBytes() + 16
	for c := range p.Stats {
		size += 64 + 16*int64(len(p.Stats[c].Distinct))
	}
	b := make([]byte, 0, size)
	b = binary.AppendUvarint(b, uint64(len(p.Schema)))
	for _, f := range p.Schema {
		b = appendString(b, f.Name)
		b = append(b, byte(f.Type))
	}
	b = binary.AppendUvarint(b, uint64(p.N))
	for c, col := range p.Cols {
		b = appendColumn(b, col)
		b = appendStats(b, p.Schema[c].Type, &p.Stats[c])
	}
	return PartitionTag, b
}

func appendColumn(b []byte, col Column) []byte {
	switch c := col.(type) {
	case *rawInt64:
		b = appendNulls(append(b, encRawInt), c.nulls)
		return appendFixed64(b, c.v)
	case *rleInt64:
		b = appendNulls(append(b, encRLEInt), c.nulls)
		b = binary.AppendUvarint(b, uint64(len(c.vals)))
		return appendUint32s(appendFixed64(b, c.vals), c.ends)
	case *packedInt64:
		b = appendNulls(append(b, encPackedInt), c.nulls)
		b = binary.LittleEndian.AppendUint64(b, uint64(c.base))
		return appendFixed64(append(b, byte(c.width)), c.words)
	case *dictInt64:
		b = appendNulls(append(b, encDictInt), c.nulls)
		b = binary.AppendUvarint(b, uint64(len(c.dict)))
		b = appendFixed64(b, c.dict)
		return appendFixed64(append(b, byte(c.width)), c.words)
	case *rawFloat64:
		b = appendNulls(append(b, encRawFloat), c.nulls)
		return appendFloat64s(b, c.v)
	case *rleFloat64:
		b = appendNulls(append(b, encRLEFloat), c.nulls)
		b = binary.AppendUvarint(b, uint64(len(c.vals)))
		return appendUint32s(appendFloat64s(b, c.vals), c.ends)
	case *rawString:
		b = appendNulls(append(b, encRawString), c.nulls)
		return append(appendUint32s(b, c.offsets), c.bytes...)
	case *dictString:
		b = appendNulls(append(b, encDictString), c.nulls)
		b = binary.AppendUvarint(b, uint64(len(c.dict)))
		for _, s := range c.dict {
			b = appendString(b, s)
		}
		return appendFixed64(append(b, byte(c.width)), c.words)
	case *boolColumn:
		b = appendNulls(append(b, encBitmap), c.nulls)
		return appendFixed64(b, c.bitsv)
	}
	panic(fmt.Sprintf("columnar: no encoded form for %T", col))
}

func appendNulls(b []byte, nulls []uint64) []byte {
	if nulls == nil {
		return append(b, 0)
	}
	return appendFixed64(append(b, 1), nulls)
}

func appendStats(b []byte, t row.Type, s *ColumnStats) []byte {
	b = appendValue(b, t, s.Min)
	b = appendValue(b, t, s.Max)
	b = binary.AppendUvarint(b, uint64(s.NullCount))
	if s.Distinct == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Distinct))+1)
	for _, v := range s.Distinct {
		b = appendTyped(b, t, v)
	}
	return b
}

func appendValue(b []byte, t row.Type, v any) []byte {
	if v == nil {
		return append(b, 0)
	}
	return appendTyped(append(b, 1), t, v)
}

func appendTyped(b []byte, t row.Type, v any) []byte {
	switch t {
	case row.TInt, row.TDate:
		return binary.LittleEndian.AppendUint64(b, uint64(v.(int64)))
	case row.TFloat:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.(float64)))
	case row.TString:
		return appendString(b, v.(string))
	}
	if v.(bool) {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendFixed64[T int64 | uint64](b []byte, v []T) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	return b
}

func appendFloat64s(b []byte, v []float64) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func appendUint32s(b []byte, v []uint32) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	return b
}

// DecodePartition restores a partition written by MarshalShuffle: the
// same column objects with the same encodings, sizes and statistics.
// Every count, width, run end, offset and dictionary code is checked
// against N and the remaining bytes before it sizes an allocation or
// indexes a slice, so corrupt input returns an error.
func DecodePartition(data []byte) (*Partition, error) {
	d := &decoder{b: data}
	ncols := d.count("column count")
	schema := make(row.Schema, 0, ncols)
	for i := 0; i < ncols && d.err == nil; i++ {
		name := string(d.take(d.count("name length"), 1))
		schema = append(schema, row.Field{Name: name, Type: row.Type(d.u8())})
	}
	n := d.uvarint()
	if n > math.MaxUint32 {
		d.fail("row count %d exceeds uint32 positions", n)
	}
	p := &Partition{Schema: schema, N: int(n), Cols: make([]Column, 0, len(schema)), Stats: make([]ColumnStats, len(schema))}
	for c := 0; c < len(schema) && d.err == nil; c++ {
		p.Cols = append(p.Cols, d.column(schema[c].Type, p.N))
		p.Stats[c] = d.stats(schema[c].Type, p.N)
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return p, nil
}

// decoder reads the encoded form. The first failure sticks: later
// reads return zero values, and DecodePartition reports it.
type decoder struct {
	b   []byte
	err error
}

var errTruncated = errors.New("columnar: decode: truncated partition")

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("columnar: decode: "+format, args...)
	}
	d.b = nil
}

// take consumes n elements of size bytes each, or fails when fewer
// remain.
func (d *decoder) take(n, size int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)/size {
		d.err, d.b = errTruncated, nil
		return nil
	}
	out := d.b[:n*size]
	d.b = d.b[n*size:]
	return out
}

func (d *decoder) u8() byte {
	if b := d.take(1, 1); d.err == nil {
		return b[0]
	}
	return 0
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, k := binary.Uvarint(d.b)
	if k <= 0 {
		d.err, d.b = errTruncated, nil
		return 0
	}
	d.b = d.b[k:]
	return v
}

// count reads an element count. Every element costs at least one
// encoded byte, so a count beyond the remaining bytes is corrupt.
func (d *decoder) count(what string) int {
	v := d.uvarint()
	if v > uint64(len(d.b)) {
		d.fail("%s %d exceeds the %d remaining bytes", what, v, len(d.b))
		return 0
	}
	return int(v)
}

func fixed64[T int64 | uint64](d *decoder, n int) []T {
	raw := d.take(n, 8)
	if d.err != nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

func (d *decoder) float64s(n int) []float64 {
	raw := d.take(n, 8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

func (d *decoder) uint32s(n int) []uint32 {
	raw := d.take(n, 4)
	if d.err != nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	return out
}

func (d *decoder) str() string { return string(d.take(d.count("string length"), 1)) }

func (d *decoder) nulls(n int) nullable {
	switch d.u8() {
	case 0:
		return nullable{}
	case 1:
		return nullable{nulls: fixed64[uint64](d, (n+63)/64)}
	}
	d.fail("bad null-bitmap flag")
	return nullable{}
}

// runEnds reads RLE run ends: strictly ascending, the last one n.
func (d *decoder) runEnds(runs, n int) []uint32 {
	ends := d.uint32s(runs)
	prev := uint32(0)
	for _, e := range ends {
		if e <= prev {
			d.fail("run ends not ascending")
			return nil
		}
		prev = e
	}
	if d.err == nil && int(prev) != n {
		d.fail("runs cover %d of %d rows", prev, n)
	}
	return ends
}

// packed reads a bit width and n lanes of packed words.
func (d *decoder) packed(n int) ([]uint64, uint) {
	width := uint(d.u8())
	if d.err == nil && (width < 1 || width > 63) {
		d.fail("bit width %d outside 1..63", width)
	}
	return fixed64[uint64](d, (n*int(width)+63)/64), width
}

// codes reads n packed dictionary codes, each checked against the
// dictionary size.
func (d *decoder) codes(n, dictLen int) ([]uint64, uint) {
	words, width := d.packed(n)
	if d.err != nil || uint64(dictLen) >= 1<<width {
		return words, width // every width-bit code is in range
	}
	// Walk the lanes in order rather than unpack each position.
	mask, limit := uint64(1)<<width-1, uint64(dictLen)
	for i, pos := 0, uint(0); i < n; i, pos = i+1, pos+width {
		w, off := pos>>6, pos&63
		v := words[w] >> off
		if off+width > 64 {
			v |= words[w+1] << (64 - off)
		}
		if v&mask >= limit {
			d.fail("dictionary code out of range at row %d", i)
			break
		}
	}
	return words, width
}

func (d *decoder) int64() int64 {
	if raw := d.take(1, 8); d.err == nil {
		return int64(binary.LittleEndian.Uint64(raw))
	}
	return 0
}

func (d *decoder) column(t row.Type, n int) Column {
	enc := d.u8()
	nulls := d.nulls(n)
	if d.err != nil {
		return nil
	}
	intType := t == row.TInt || t == row.TDate
	switch {
	case intType && enc == encRawInt:
		return &rawInt64{nullable: nulls, v: fixed64[int64](d, n)}
	case intType && enc == encRLEInt:
		runs := d.count("run count")
		vals := fixed64[int64](d, runs)
		return &rleInt64{nullable: nulls, vals: vals, ends: d.runEnds(runs, n), n: n}
	case intType && enc == encPackedInt:
		base := d.int64()
		words, width := d.packed(n)
		return &packedInt64{nullable: nulls, words: words, base: base, width: width, n: n}
	case intType && enc == encDictInt:
		dict := fixed64[int64](d, d.count("dictionary size"))
		words, width := d.codes(n, len(dict))
		return &dictInt64{nullable: nulls, dict: dict, words: words, width: width, n: n}
	case t == row.TFloat && enc == encRawFloat:
		return &rawFloat64{nullable: nulls, v: d.float64s(n)}
	case t == row.TFloat && enc == encRLEFloat:
		runs := d.count("run count")
		vals := d.float64s(runs)
		return &rleFloat64{nullable: nulls, vals: vals, ends: d.runEnds(runs, n), n: n}
	case t == row.TString && enc == encRawString:
		offsets := d.uint32s(n + 1)
		for i := 1; i < len(offsets) && d.err == nil; i++ {
			if offsets[i] < offsets[i-1] {
				d.fail("string offsets not ascending")
			}
		}
		if d.err == nil && offsets[0] != 0 {
			d.fail("first string offset %d", offsets[0])
		}
		var bytes []byte
		if d.err == nil {
			bytes = append([]byte(nil), d.take(int(offsets[n]), 1)...)
		}
		return &rawString{nullable: nulls, offsets: offsets, bytes: bytes}
	case t == row.TString && enc == encDictString:
		dict := make([]string, d.count("dictionary size"))
		for i := range dict {
			dict[i] = d.str()
		}
		words, width := d.codes(n, len(dict))
		return &dictString{nullable: nulls, dict: dict, words: words, width: width, n: n}
	case t == row.TBool && enc == encBitmap:
		return &boolColumn{nullable: nulls, bitsv: fixed64[uint64](d, (n+63)/64), n: n}
	}
	d.fail("encoding %d does not fit a %v column", enc, t)
	return nil
}

func (d *decoder) stats(t row.Type, n int) ColumnStats {
	s := ColumnStats{Min: d.value(t), Max: d.value(t)}
	nullCount := d.uvarint()
	if nullCount > uint64(n) {
		d.fail("null count %d exceeds %d rows", nullCount, n)
	}
	s.NullCount = int64(nullCount)
	tracked := d.uvarint()
	if tracked == 0 {
		return s
	}
	if tracked-1 > maxDistinctTracked || tracked-1 > uint64(len(d.b)) {
		d.fail("distinct count %d", tracked-1)
		return s
	}
	s.Distinct = make([]any, tracked-1)
	for i := range s.Distinct {
		s.Distinct[i] = d.typed(t)
	}
	return s
}

func (d *decoder) value(t row.Type) any {
	switch d.u8() {
	case 0:
		return nil
	case 1:
		return d.typed(t)
	}
	d.fail("bad value flag")
	return nil
}

func (d *decoder) typed(t row.Type) any {
	switch t {
	case row.TInt, row.TDate:
		return d.int64()
	case row.TFloat:
		return math.Float64frombits(uint64(d.int64()))
	case row.TString:
		return d.str()
	case row.TBool:
		return d.u8() != 0
	}
	d.fail("unsupported column type %v", t)
	return nil
}
