package shuffle

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"shark/internal/cluster"
	"shark/internal/columnar"
	"shark/internal/row"
)

// The memtable package registers the partition decoder in production;
// these tests cannot import it (memtable depends on shuffle).
func init() {
	RegisterDiskDecoder(columnar.PartitionTag, func(data []byte) (any, error) {
		p, err := columnar.DecodePartition(data)
		if err != nil {
			return nil, err
		}
		return p, nil
	})
}

// spillPartition seals n rows whose columns take every encoding the
// builder picks at that size: raw/RLE/bit-packed/dictionary ints,
// raw/RLE floats, raw/dictionary strings and a bool bitmap, with a
// NULL in about one value in sixteen.
func spillPartition(n int) *columnar.Partition {
	rng := rand.New(rand.NewSource(int64(n)))
	types := []row.Type{row.TInt, row.TInt, row.TInt, row.TInt, row.TFloat, row.TFloat, row.TString, row.TString, row.TBool}
	schema := make(row.Schema, len(types))
	for c, t := range types {
		schema[c] = row.Field{Name: fmt.Sprintf("c%d", c), Type: t}
	}
	b := columnar.NewBuilder(schema)
	for i := 0; i < n; i++ {
		r := row.Row{
			rng.Int63(), int64(i / 32), int64(rng.Intn(1000)), int64(rng.Intn(40)) * 1_000_003,
			rng.NormFloat64(), float64(i / 24),
			fmt.Sprintf("s%d", rng.Intn(5000)), fmt.Sprintf("c%d", rng.Intn(12)),
			rng.Intn(3) == 0,
		}
		for c := range r {
			if rng.Intn(16) == 0 {
				r[c] = nil
			}
		}
		if err := b.Append(r); err != nil {
			panic(err)
		}
	}
	return b.Seal()
}

// TestSpillCodecRoundTrip: pairs, row slices, scalars, nils and
// columnar partitions survive the spill encoding.
func TestSpillCodecRoundTrip(t *testing.T) {
	codec := sparkSpillCodec{}
	cases := []any{
		[]Pair{{K: int64(1), V: row.Row{int64(2), "x"}}, {K: "k", V: int64(9)}},
		[]any{row.Row{int64(1), "a", 2.5, true, nil}, row.Row{int64(2), "b", 0.0, false, "z"}},
		[]any{int64(7), "str", 1.25, true, nil},
		[]any{Pair{K: int64(3), V: "v"}, int64(4)},
		[]any{},
		// Columnar partitions cross in their encoded form and come back
		// as the same columns, encodings and stats.
		[]any{spillPartition(300), spillPartition(1)},
		[]Pair{{K: int64(1), V: spillPartition(300)}},
	}
	for _, in := range cases {
		data, err := codec.EncodeSpill(in)
		if err != nil {
			t.Fatalf("encode %T: %v", in, err)
		}
		out, err := codec.DecodeSpill(data)
		if err != nil {
			t.Fatalf("decode %T: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("round trip %T: got %#v want %#v", in, out, in)
		}
	}
}

// badValue is a DiskMarshaler whose decoder always fails, standing in
// for a corrupt map output on disk.
type badValue struct{}

const badValueTag = "shuffle.test.bad"

func (badValue) MarshalShuffle() (string, []byte) { return badValueTag, []byte{1, 2, 3} }

func init() {
	RegisterDiskDecoder(badValueTag, func([]byte) (any, error) { return nil, errors.New("corrupt") })
}

// TestDiskBucketBadValueIsMissingOutput: a disk-mode bucket whose value
// does not decode is reported as a lost map output — which the
// scheduler regenerates — instead of panicking the reduce task.
func TestDiskBucketBadValueIsMissingOutput(t *testing.T) {
	c, svc := newEnv(t, Disk)
	id := svc.NewShuffleID()
	for m, v := range []any{int64(1), badValue{}} {
		w := svc.NewWriter(id, m, 1, c.Worker(0))
		w.Write(0, Pair{K: int64(m), V: v})
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	_, err := svc.Fetch(id, 0, map[int]int{0: 0, 1: 0})
	var fe *FetchError
	if !errors.As(err, &fe) || !reflect.DeepEqual(fe.MapParts, []int{1}) {
		t.Fatalf("err = %v, want a FetchError naming map output 1", err)
	}
	if _, err := (sparkSpillCodec{}).DecodeSpill(mustEncodeSpill(t, []any{badValue{}})); err == nil {
		t.Error("spill block with an undecodable value decoded")
	}
	if _, _, err := decodeValue([]byte{valCustom, 2, 'n', 'o', 0}); err == nil {
		t.Error("value with an unregistered tag decoded")
	}
}

func mustEncodeSpill(t testing.TB, v any) []byte {
	t.Helper()
	data, err := (sparkSpillCodec{}).EncodeSpill(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzDecodeSpill: arbitrary bytes decode or return an error — never
// a panic (decodeSpill runs without the codec's recover guard), and
// never an allocation out of proportion to the input.
func FuzzDecodeSpill(f *testing.F) {
	for _, n := range []int{0, 1, 300} {
		p := spillPartition(n)
		f.Add(mustEncodeSpill(f, []any{p, row.Row{int64(1), "a", nil}, int64(7)}))
		f.Add(mustEncodeSpill(f, []Pair{{K: int64(n), V: p}, {K: "k", V: row.Row{2.5, true}}}))
	}
	f.Add(mustEncodeSpill(f, []any{Pair{K: int64(3), V: "v"}, nil}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		decodeSpill(data)
		runtime.ReadMemStats(&ms1)
		if alloc := ms1.TotalAlloc - ms0.TotalAlloc; alloc > 128*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
	})
}

// TestSpillCodecRejectsUnknown: values that cannot cross a disk
// boundary report an error instead of panicking.
func TestSpillCodecRejectsUnknown(t *testing.T) {
	codec := sparkSpillCodec{}
	if _, err := codec.EncodeSpill("just a string"); err == nil {
		t.Error("bare string encoded")
	}
	if _, err := codec.EncodeSpill([]any{[]float64{1, 2}}); err == nil {
		t.Error("slice with unencodable element encoded")
	}
	if _, err := codec.DecodeSpill([]byte{'?'}); err == nil {
		t.Error("garbage decoded")
	}
}

// TestFetchFromSpilledBucket: a map output the shuffle budget pushed
// to the producer's disk tier is still fetchable.
func TestFetchFromSpilledBucket(t *testing.T) {
	// Tiny shuffle budget + disk tier: the first bucket spills as soon
	// as the second commits.
	c := cluster.New(cluster.Config{
		Workers:            1,
		Slots:              1,
		WorkerShuffleBytes: 1,
		WorkerDiskBytes:    -1,
	})
	defer c.Close()
	svc := NewService(c, Memory, "")
	id := svc.NewShuffleID()
	w := c.Worker(0)
	for mapPart := 0; mapPart < 2; mapPart++ {
		wr := svc.NewWriter(id, mapPart, 1, w)
		wr.Write(0, Pair{K: int64(mapPart), V: int64(mapPart * 10)})
		if _, err := wr.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if c.DiskTierStats().SpilledBlocks == 0 {
		t.Fatal("no buckets spilled despite the 1-byte shuffle budget")
	}
	out, err := svc.Fetch(id, 0, map[int]int{0: 0, 1: 0})
	if err != nil {
		t.Fatalf("fetch across tiers: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("fetched %d pairs, want 2", len(out))
	}
}

// TestUnregisterDeletesSpilledBuckets: epoch pruning sweeps spilled
// buckets — entries and files — so a long-lived cluster does not leak
// spill-dir disk.
func TestUnregisterDeletesSpilledBuckets(t *testing.T) {
	c := cluster.New(cluster.Config{
		Workers:            1,
		Slots:              1,
		WorkerShuffleBytes: 1,
		WorkerDiskBytes:    -1,
	})
	defer c.Close()
	svc := NewService(c, Memory, "")
	id := svc.NewShuffleID()
	w := c.Worker(0)
	for mapPart := 0; mapPart < 3; mapPart++ {
		wr := svc.NewWriter(id, mapPart, 1, w)
		wr.Write(0, Pair{K: int64(mapPart), V: int64(1)})
		if _, err := wr.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	disk := w.Store().Disk()
	if disk.Len() == 0 {
		t.Fatal("nothing spilled before Unregister")
	}
	dir := disk.Dir()
	svc.Unregister(id)
	if n := disk.Len(); n != 0 {
		t.Errorf("%d spilled buckets survive Unregister", n)
	}
	if got := disk.ApproxBytes(); got != 0 {
		t.Errorf("disk still accounts %d bytes after Unregister", got)
	}
	if ents, err := os.ReadDir(dir); err == nil && len(ents) != 0 {
		t.Errorf("%d spill files leaked after Unregister", len(ents))
	}
}
