// Package shuffle implements the data-exchange layer between stages.
//
// Following the paper (§5 "Memory-based Shuffle"), map output buckets
// are materialized in the producing worker's in-memory block store by
// default, with an optional disk mode (real temp files) used by the
// Hadoop baseline and the shuffle ablation benchmark. Outputs are
// owned by the worker that produced them: killing the worker loses
// them, which is what forces the DAG scheduler to re-run map tasks —
// the heart of the mid-query fault-tolerance experiments.
package shuffle

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"shark/internal/cluster"
	"shark/internal/row"
)

// Pair is the element type flowing through shuffles.
type Pair struct {
	K, V any
}

// Partitioner maps keys to reduce buckets.
type Partitioner interface {
	NumPartitions() int
	PartitionFor(key any) int
}

// HashPartitioner buckets by value hash.
type HashPartitioner struct{ N int }

// NumPartitions returns the bucket count.
func (p HashPartitioner) NumPartitions() int { return p.N }

// PartitionFor returns the bucket for a key.
func (p HashPartitioner) PartitionFor(key any) int {
	return int(row.Hash(key) % uint64(p.N))
}

// RangePartitioner buckets by sorted key ranges; bucket i receives
// keys in (bounds[i-1], bounds[i]].
type RangePartitioner struct {
	Bounds []any // len N-1, ascending
}

// NumPartitions returns the bucket count.
func (p RangePartitioner) NumPartitions() int { return len(p.Bounds) + 1 }

// PartitionFor returns the bucket for a key.
func (p RangePartitioner) PartitionFor(key any) int {
	return sort.Search(len(p.Bounds), func(i int) bool {
		return row.Compare(p.Bounds[i], key) >= 0
	})
}

// Mode selects where map outputs live.
type Mode int

const (
	// Memory materializes buckets in worker block stores (Shark).
	Memory Mode = iota
	// Disk writes buckets to local temp files (Hadoop baseline).
	Disk
)

// Service coordinates shuffle storage. One per engine instance.
type Service struct {
	mode    Mode
	dir     string // for Disk mode
	nextID  atomic.Int64
	cluster *cluster.Cluster

	metrics ServiceMetrics

	mu sync.Mutex
	// diskFiles tracks files per (shuffle,map,worker) for cleanup.
	diskFiles map[string][]string
}

// ServiceMetrics counts reduce-side shuffle traffic (scraped by the
// cluster metrics registry).
type ServiceMetrics struct {
	// FetchCalls counts bucket fetches (Fetch + FetchPartial);
	// FetchedPairs counts the pairs they returned.
	FetchCalls   atomic.Int64
	FetchedPairs atomic.Int64
	// SpilledReads counts bucket reads served from a producer's disk
	// spill tier rather than its in-memory block store.
	SpilledReads atomic.Int64
}

// Metrics returns the service's counters.
func (s *Service) Metrics() *ServiceMetrics { return &s.metrics }

// NewService creates a shuffle service. dir is required for Disk mode.
func NewService(c *cluster.Cluster, mode Mode, dir string) *Service {
	return &Service{mode: mode, dir: dir, cluster: c, diskFiles: make(map[string][]string)}
}

// NewShuffleID allocates a fresh shuffle ID.
func (s *Service) NewShuffleID() int { return int(s.nextID.Add(1)) }

// Mode returns the configured storage mode.
func (s *Service) Mode() Mode { return s.mode }

func blockKey(shuffleID, mapPart, bucket int) string {
	return fmt.Sprintf("shuf/%d/%d/%d", shuffleID, mapPart, bucket)
}

// BucketStats summarizes one map task's output, fed to PDE.
type BucketStats struct {
	// Bytes and Records are indexed by reduce bucket.
	Bytes   []int64
	Records []int64
}

// Writer accumulates one map task's partitioned output.
type Writer struct {
	svc       *Service
	shuffleID int
	mapPart   int
	worker    *cluster.Worker
	buckets   [][]Pair
	stats     BucketStats
}

// NewWriter starts writing map output for (shuffleID, mapPart) on w.
func (s *Service) NewWriter(shuffleID, mapPart, numBuckets int, w *cluster.Worker) *Writer {
	return &Writer{
		svc:       s,
		shuffleID: shuffleID,
		mapPart:   mapPart,
		worker:    w,
		buckets:   make([][]Pair, numBuckets),
		stats:     BucketStats{Bytes: make([]int64, numBuckets), Records: make([]int64, numBuckets)},
	}
}

// Write adds a pair to a bucket.
func (w *Writer) Write(bucket int, p Pair) {
	w.buckets[bucket] = append(w.buckets[bucket], p)
	w.stats.Records[bucket]++
	w.stats.Bytes[bucket] += EstimateSize(p.K) + EstimateSize(p.V)
}

// Commit persists all buckets to the worker's store (or disk) and
// returns the per-bucket stats.
func (w *Writer) Commit() (BucketStats, error) {
	for b, pairs := range w.buckets {
		key := blockKey(w.shuffleID, w.mapPart, b)
		if w.svc.mode == Memory {
			w.worker.Store().Put(key, pairs, w.stats.Bytes[b])
			continue
		}
		path, err := w.svc.writeDiskBucket(key, pairs)
		if err != nil {
			return BucketStats{}, err
		}
		w.worker.Store().Put(key, path, int64(len(path)))
	}
	return w.stats, nil
}

func (s *Service) writeDiskBucket(key string, pairs []Pair) (string, error) {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(s.dir, "bucket-*")
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var buf, val []byte
	for _, p := range pairs {
		// Each pair is two length-prefixed frames: the key as a
		// one-field binary row, then the encoded value.
		val = appendValue(val[:0], p.V)
		buf = row.EncodeBinary(buf[:0], row.Row{p.K})
		buf = binary.AppendUvarint(buf, uint64(len(val)))
		if _, err := bw.Write(append(buf, val...)); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	s.mu.Lock()
	s.diskFiles[key] = append(s.diskFiles[key], f.Name())
	s.mu.Unlock()
	return f.Name(), nil
}

// FetchError reports missing map outputs; the scheduler reacts by
// regenerating the named map partitions.
type FetchError struct {
	ShuffleID int
	MapParts  []int
}

// Error implements error.
func (e *FetchError) Error() string {
	return fmt.Sprintf("shuffle %d: lost map outputs for partitions %v", e.ShuffleID, e.MapParts)
}

// Fetch gathers bucket `bucket` from every map partition. locations
// maps map-partition → worker ID that holds its output.
func (s *Service) Fetch(shuffleID, bucket int, locations map[int]int) ([]Pair, error) {
	// deterministic order for reproducibility
	parts := make([]int, 0, len(locations))
	for p := range locations {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	return s.fetchParts(shuffleID, bucket, locations, parts)
}

// FetchPartial gathers bucket `bucket` from only the listed map
// partitions — the skew-split read path, where several reduce tasks
// share one hot bucket by fetching disjoint subsets of its map
// outputs. A requested partition absent from locations is reported as
// missing so the scheduler's fetch-failure recovery regenerates it.
func (s *Service) FetchPartial(shuffleID, bucket int, locations map[int]int, maps []int) ([]Pair, error) {
	parts := append([]int(nil), maps...)
	sort.Ints(parts)
	return s.fetchParts(shuffleID, bucket, locations, parts)
}

func (s *Service) fetchParts(shuffleID, bucket int, locations map[int]int, parts []int) ([]Pair, error) {
	s.metrics.FetchCalls.Add(1)
	var out []Pair
	var missing []int
	for _, mapPart := range parts {
		wid, located := locations[mapPart]
		if !located {
			missing = append(missing, mapPart)
			continue
		}
		w := s.cluster.Worker(wid)
		key := blockKey(shuffleID, mapPart, bucket)
		v, ok := w.Store().Get(key)
		if !ok {
			// A bucket the shuffle budget pushed to the producer's disk
			// tier is still that worker's output — read it back.
			if v, ok = w.Store().GetSpilled(key); ok {
				s.metrics.SpilledReads.Add(1)
			}
		}
		if !ok || !w.Alive() {
			missing = append(missing, mapPart)
			continue
		}
		if s.mode == Memory {
			out = append(out, v.([]Pair)...)
			continue
		}
		pairs, err := readDiskBucket(v.(string))
		if err != nil {
			missing = append(missing, mapPart)
			continue
		}
		out = append(out, pairs...)
	}
	if len(missing) > 0 {
		return nil, &FetchError{ShuffleID: shuffleID, MapParts: missing}
	}
	s.metrics.FetchedPairs.Add(int64(len(out)))
	return out, nil
}

// readDiskBucket reads a disk-mode bucket back. Any unreadable or
// undecodable pair is an error, which the fetch reports as a missing
// map output for the scheduler to regenerate.
func readDiskBucket(path string) ([]Pair, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var out []Pair
	for {
		k, err := readOneRow(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if len(k) != 1 {
			return nil, fmt.Errorf("shuffle: key row has %d fields", len(k))
		}
		frame, err := readFrame(br)
		if err != nil {
			return nil, err
		}
		v, used, err := decodeValue(frame)
		if err == nil && used != len(frame) {
			err = fmt.Errorf("shuffle: %d trailing bytes after a value", len(frame)-used)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, Pair{K: k[0], V: v})
	}
}

// readFrame reads one uvarint-length-prefixed frame.
func readFrame(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	// Shuffle streams cross the (simulated) network: bound the frame
	// length before allocating, same rule as row.BinaryReader.
	if n > row.MaxBinaryRowBytes {
		return nil, fmt.Errorf("shuffle: frame length %d exceeds limit %d", n, int64(row.MaxBinaryRowBytes))
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func readOneRow(br *bufio.Reader) (row.Row, error) {
	body, err := readFrame(br)
	if err != nil {
		return nil, err
	}
	full := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(body)), uint64(len(body)))
	r, _, err := row.DecodeBinary(append(full, body...))
	return r, err
}

// Disk boundaries (disk-mode shuffle files and the spill tier) carry
// scalars, row.Row values, and any engine value implementing
// DiskMarshaler (the SQL engine's partial aggregation states, columnar
// partitions). An encoded value starts with its kind:
//
//	'r' row.Row       its binary row
//	's' scalar        a one-field binary row
//	'c' DiskMarshaler uvarint(len) tag, uvarint(len) data
const (
	valRow    = 'r'
	valScalar = 's'
	valCustom = 'c'
)

// DiskMarshaler lets engine-level values cross a disk boundary as
// opaque bytes. The tag selects the decoder registered with
// RegisterDiskDecoder, which receives exactly data back.
type DiskMarshaler interface {
	MarshalShuffle() (tag string, data []byte)
}

var diskDecoders sync.Map // tag string → func([]byte) (any, error)

// RegisterDiskDecoder installs the inverse of a DiskMarshaler's
// MarshalShuffle for a tag (called from package init functions; last
// registration wins). Bytes fn cannot decode are an error, never a
// panic: they may come from a corrupt file.
func RegisterDiskDecoder(tag string, fn func(data []byte) (any, error)) {
	diskDecoders.Store(tag, fn)
}

// appendValue appends v's encoding. It panics, as row.EncodeBinary
// does, on a value with no encoding; EncodeSpill reports that as
// unspillable.
func appendValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case row.Row:
		return row.EncodeBinary(append(b, valRow), x)
	case DiskMarshaler:
		tag, data := x.MarshalShuffle()
		b = append(b, valCustom)
		b = append(binary.AppendUvarint(b, uint64(len(tag))), tag...)
		return append(binary.AppendUvarint(b, uint64(len(data))), data...)
	default:
		return row.EncodeBinary(append(b, valScalar), row.Row{x})
	}
}

// decodeValue decodes the value at the front of b and reports the
// bytes it used.
func decodeValue(b []byte) (any, int, error) {
	if len(b) == 0 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	switch b[0] {
	case valRow:
		r, n, err := row.DecodeBinary(b[1:])
		return r, 1 + n, err
	case valScalar:
		r, n, err := row.DecodeBinary(b[1:])
		if err == nil && len(r) != 1 {
			err = fmt.Errorf("shuffle: scalar value row has %d fields", len(r))
		}
		if err != nil {
			return nil, 0, err
		}
		return r[0], 1 + n, nil
	case valCustom:
		rest := b[1:]
		tag, rest, err := cutFrame(rest)
		if err != nil {
			return nil, 0, err
		}
		data, rest, err := cutFrame(rest)
		if err != nil {
			return nil, 0, err
		}
		fn, ok := diskDecoders.Load(string(tag))
		if !ok {
			return nil, 0, fmt.Errorf("shuffle: no disk decoder registered for %q", tag)
		}
		v, err := fn.(func([]byte) (any, error))(data)
		if err != nil {
			return nil, 0, err
		}
		return v, len(b) - len(rest), nil
	}
	return nil, 0, fmt.Errorf("shuffle: bad value kind %q", b[0])
}

// cutFrame splits a uvarint-length-prefixed frame off the front of b.
func cutFrame(b []byte) (frame, rest []byte, err error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, nil, io.ErrUnexpectedEOF
	}
	return b[k : k+int(n)], b[k+int(n):], nil
}

// Unregister drops all trace of a shuffle (cleanup between queries).
// Store Keys/Delete span both tiers, so buckets the shuffle budget
// spilled to a worker's disk are deleted — files included — along
// with the in-memory ones: epoch pruning must not leak spill-dir
// space on a long-lived cluster.
func (s *Service) Unregister(shuffleID int) {
	prefix := fmt.Sprintf("shuf/%d/", shuffleID)
	for i := 0; i < s.cluster.NumWorkers(); i++ {
		st := s.cluster.Worker(i).Store()
		for _, k := range st.Keys() {
			if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
				st.Delete(k)
			}
		}
	}
	s.mu.Lock()
	for k, files := range s.diskFiles {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			for _, f := range files {
				os.Remove(f)
			}
			delete(s.diskFiles, k)
		}
	}
	s.mu.Unlock()
}

// EstimateSize roughly estimates the in-memory size of a value in
// bytes; PDE only needs order-of-magnitude accuracy (the paper even
// log-encodes sizes with 10% error).
func EstimateSize(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 1
	case int64, float64:
		return 8
	case bool:
		return 1
	case string:
		return int64(len(x)) + 16
	case row.Row:
		var n int64 = 24
		for _, f := range x {
			n += EstimateSize(f)
		}
		return n
	case []any:
		var n int64 = 24
		for _, f := range x {
			n += EstimateSize(f)
		}
		return n
	case Pair:
		return EstimateSize(x.K) + EstimateSize(x.V)
	case interface{ SizeBytes() int64 }:
		// Engine values that track their own footprint (e.g. columnar
		// partitions) — without this, a cached columnar table would
		// account as a few bytes and never feel memory pressure.
		return x.SizeBytes()
	default:
		return 32
	}
}

// CleanupDir removes all disk bucket files (test helper).
func (s *Service) CleanupDir() {
	if s.dir != "" {
		os.RemoveAll(filepath.Clean(s.dir))
	}
}
