package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

// testSpillCodec handles []any slices of int64 — enough to exercise
// the tier without importing the production codec (which lives in the
// shuffle package and would import-cycle back here). It counts its
// encodes, and a test may install a hook that runs inside each decode.
type testSpillCodec struct{}

var (
	testEncodes    atomic.Int64
	testDecodeHook atomic.Pointer[func() error]
)

func (testSpillCodec) EncodeSpill(v any) ([]byte, error) {
	testEncodes.Add(1)
	xs, ok := v.([]any)
	if !ok {
		return nil, errors.New("unspillable")
	}
	out := binary.AppendUvarint(nil, uint64(len(xs)))
	for _, x := range xs {
		n, ok := x.(int64)
		if !ok {
			return nil, errors.New("unspillable element")
		}
		out = binary.AppendVarint(out, n)
	}
	return out, nil
}

func (testSpillCodec) DecodeSpill(data []byte) (any, error) {
	if hook := testDecodeHook.Load(); hook != nil {
		if err := (*hook)(); err != nil {
			return nil, err
		}
	}
	n, off := binary.Uvarint(data)
	if off <= 0 {
		return nil, errors.New("bad header")
	}
	data = data[off:]
	out := make([]any, 0, n)
	for i := uint64(0); i < n; i++ {
		v, used := binary.Varint(data)
		if used <= 0 {
			return nil, errors.New("truncated")
		}
		out = append(out, v)
		data = data[used:]
	}
	return out, nil
}

func init() { RegisterSpillCodec(testSpillCodec{}) }

// block builds a spillable test value of ~n accounted bytes.
func block(vals ...int64) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}

func newSpillStore(t *testing.T, capacity, shuffleCapacity, diskCapacity int64) *BlockStore {
	t.Helper()
	return NewTieredBlockStore(capacity, shuffleCapacity, NewDiskStore(t.TempDir(), diskCapacity))
}

// TestSpillOnEviction: a spillable LRU victim lands on the disk tier
// instead of being dropped, stays visible to Contains, and comes back
// through GetSpilled with the original value.
func TestSpillOnEviction(t *testing.T) {
	s := newSpillStore(t, 100, 0, -1)
	if !s.PutEvictableSpillable("a", block(1, 2), 60) {
		t.Fatal("a rejected")
	}
	if !s.PutEvictableSpillable("b", block(3), 60) { // evicts a → disk
		t.Fatal("b rejected")
	}
	if s.InMemory("a") {
		t.Error("a still memory-resident after eviction")
	}
	if !s.Contains("a") {
		t.Error("spilled block invisible to Contains")
	}
	v, ok := s.GetSpilled("a")
	if !ok {
		t.Fatal("spilled block unreadable")
	}
	if got := v.([]any); len(got) != 2 || got[0].(int64) != 1 || got[1].(int64) != 2 {
		t.Errorf("spilled value corrupted: %v", got)
	}
	if s.Spills() != 1 || s.Evictions() != 0 {
		t.Errorf("spills=%d evictions=%d, want 1/0", s.Spills(), s.Evictions())
	}
	if s.Disk().SpilledBlocks() != 1 || s.Disk().ApproxBytes() != 60 {
		t.Errorf("disk accounts %d blocks/%d bytes, want 1/60", s.Disk().SpilledBlocks(), s.Disk().ApproxBytes())
	}
}

// TestUnspillableVictimDrops: a victim the codec cannot encode is
// dropped like a plain eviction (counted as such), never corrupted.
func TestUnspillableVictimDrops(t *testing.T) {
	s := newSpillStore(t, 100, 0, -1)
	if !s.PutEvictableSpillable("a", "not-a-slice", 60) {
		t.Fatal("a rejected")
	}
	if !s.PutEvictableSpillable("b", block(1), 60) {
		t.Fatal("b rejected")
	}
	if s.Contains("a") {
		t.Error("unspillable victim still present")
	}
	if s.Evictions() != 1 || s.Spills() != 0 {
		t.Errorf("evictions=%d spills=%d, want 1/0", s.Evictions(), s.Spills())
	}
	if s.Disk().EncodeFailures() == 0 {
		t.Error("encode failure not counted")
	}
}

// TestDiskTierLRUEviction: the disk tier has its own budget and LRU;
// overflowing it drops the least-recently-read spilled block and fires
// the disk-evict callback (the tracker's cue that the block is gone).
func TestDiskTierLRUEviction(t *testing.T) {
	s := newSpillStore(t, 50, 0, 100)
	var mu sync.Mutex
	var gone []string
	s.SetOnDiskEvict(func(key string, size int64) {
		mu.Lock()
		gone = append(gone, key)
		mu.Unlock()
	})
	// Three spillable blocks through a 50-byte memory tier: each new
	// put evicts (spills) the previous one.
	s.PutEvictableSpillable("a", block(1), 50)
	s.PutEvictableSpillable("b", block(2), 50) // a → disk
	s.PutEvictableSpillable("c", block(3), 50) // b → disk
	if _, ok := s.GetSpilled("a"); !ok {       // refresh a: b is now disk-LRU
		t.Fatal("a missing from disk")
	}
	s.PutEvictableSpillable("d", block(4), 50) // c → disk, disk over budget → b dropped
	if s.Contains("b") {
		t.Error("disk-LRU victim b still present")
	}
	if !s.Contains("a") || !s.Contains("c") {
		t.Errorf("wrong disk eviction victim: a=%v c=%v", s.Contains("a"), s.Contains("c"))
	}
	if s.Disk().Evictions() != 1 {
		t.Errorf("disk evictions = %d, want 1", s.Disk().Evictions())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gone) != 1 || gone[0] != "b" {
		t.Errorf("disk-evict callback saw %v, want [b]", gone)
	}
	if got := s.Disk().ApproxBytes(); got > 100 {
		t.Errorf("disk tier accounts %d bytes over its 100 budget", got)
	}
}

// TestOverwriteWhileSpilledPurgesDiskCopy: regression for the
// double-count bug — overwriting a key whose block lives on disk must
// remove the disk copy too, or the store double-accounts the block
// and a later disk read resurrects the stale value.
func TestOverwriteWhileSpilledPurgesDiskCopy(t *testing.T) {
	s := newSpillStore(t, 100, 0, -1)
	s.PutEvictableSpillable("k", block(1), 60)
	s.PutEvictableSpillable("fill", block(9), 60) // k → disk
	if !s.Disk().Contains("k") {
		t.Fatal("k not spilled")
	}
	// Overwrite k in memory (a recompute re-cached it).
	if !s.PutEvictableSpillable("k", block(2), 30) {
		t.Fatal("overwrite rejected")
	}
	if s.Disk().Contains("k") {
		t.Error("stale disk copy survived the overwrite (double-counted)")
	}
	if got := s.Disk().ApproxBytes(); got != 0 {
		t.Errorf("disk still accounts %d bytes after the overwrite purge", got)
	}
	if v, ok := s.Get("k"); !ok || v.([]any)[0].(int64) != 2 {
		t.Errorf("memory copy wrong after overwrite: %v %v", v, ok)
	}
	if _, ok := s.GetSpilled("k"); ok {
		t.Error("GetSpilled served a stale overwritten value")
	}
	// Pinned overwrite purges too.
	s2 := newSpillStore(t, 100, 0, -1)
	s2.PutEvictableSpillable("p", block(3), 60)
	s2.PutEvictableSpillable("fill", block(8), 60) // p → disk
	if !s2.Disk().Contains("p") {
		t.Fatal("p not spilled")
	}
	s2.Put("p", "pinned-now", 10)
	if s2.Disk().Contains("p") {
		t.Error("pinned overwrite left a stale disk copy")
	}
}

// TestDeletePurgesBothTiers: Delete removes the block from memory and
// disk, file included, and the accounting on both tiers returns to
// zero — the Session.Close / shuffle-unregister cleanup path.
func TestDeletePurgesBothTiers(t *testing.T) {
	s := newSpillStore(t, 100, 0, -1)
	dir := s.Disk().Dir()
	s.PutEvictableSpillable("a", block(1), 60)
	s.PutEvictableSpillable("b", block(2), 60) // a → disk
	s.Delete("a")
	s.Delete("b")
	if s.Contains("a") || s.Contains("b") {
		t.Error("blocks survive Delete")
	}
	if s.ApproxBytes() != 0 || s.Disk().ApproxBytes() != 0 {
		t.Errorf("accounting leaked: mem=%d disk=%d", s.ApproxBytes(), s.Disk().ApproxBytes())
	}
	ents, err := os.ReadDir(dir)
	if err == nil && len(ents) != 0 {
		t.Errorf("%d spill files leaked after Delete", len(ents))
	}
}

// TestKeysSpansTiers: Keys lists spilled blocks too, so prefix sweeps
// (shuffle Unregister) reach them.
func TestKeysSpansTiers(t *testing.T) {
	s := newSpillStore(t, 60, 0, -1)
	s.PutEvictableSpillable("x", block(1), 50)
	s.PutEvictableSpillable("y", block(2), 50) // x → disk
	keys := map[string]bool{}
	for _, k := range s.Keys() {
		keys[k] = true
	}
	if !keys["x"] || !keys["y"] || len(keys) != 2 {
		t.Errorf("Keys() = %v, want {x,y}", keys)
	}
}

// TestWipeClearsDiskFiles: worker death wipes the disk tier and its
// files along with memory.
func TestWipeClearsDiskFiles(t *testing.T) {
	s := newSpillStore(t, 60, 0, -1)
	dir := s.Disk().Dir()
	s.PutEvictableSpillable("x", block(1), 50)
	s.PutEvictableSpillable("y", block(2), 50)
	s.Wipe()
	if s.Len() != 0 || s.Disk().Len() != 0 || s.Disk().ApproxBytes() != 0 {
		t.Errorf("state survives Wipe: len=%d disk=%d", s.Len(), s.Disk().Len())
	}
	if ents, err := os.ReadDir(dir); err == nil && len(ents) != 0 {
		t.Errorf("%d spill files survive Wipe", len(ents))
	}
}

// TestShuffleBudgetSplit: with a separate shuffle budget, pinned puts
// neither evict cache blocks nor count against the cache budget, and
// pinned bytes over the budget spill the coldest bucket to disk.
func TestShuffleBudgetSplit(t *testing.T) {
	s := newSpillStore(t, 100, 120, -1)
	if !s.PutEvictableSpillable("cache/a", block(1), 80) {
		t.Fatal("cache block rejected")
	}
	// Pinned puts: 3 × 50 = 150 > 120 budget → the oldest spills.
	s.Put("shuf/1", block(10), 50)
	s.Put("shuf/2", block(11), 50)
	if !s.InMemory("cache/a") {
		t.Fatal("pinned put under its own budget evicted a cache block")
	}
	s.Put("shuf/3", block(12), 50)
	if !s.InMemory("cache/a") {
		t.Error("pinned overflow evicted a cache block despite the split budget")
	}
	if s.InMemory("shuf/1") {
		t.Error("coldest pinned bucket not spilled")
	}
	if v, ok := s.GetSpilled("shuf/1"); !ok || v.([]any)[0].(int64) != 10 {
		t.Errorf("spilled bucket unreadable: %v %v", v, ok)
	}
	if got := s.PinnedBytes(); got > 120 {
		t.Errorf("pinned bytes %d over the 120 budget", got)
	}
	// Cache admissions ignore the pinned footprint entirely: a second
	// 80-byte cache block is feasible (evicting the first), even with
	// 100 pinned bytes resident.
	if !s.PutEvictableSpillable("cache/b", block(2), 80) {
		t.Error("cache admission blocked by pinned bytes under the split budget")
	}
	if got := s.EvictableBytes(); got > 100 {
		t.Errorf("evictable bytes %d over the 100 cache budget", got)
	}
}

// TestShuffleBudgetUnspillableStays: pinned blocks the codec cannot
// spill stay resident over budget — correctness over the bound.
func TestShuffleBudgetUnspillableStays(t *testing.T) {
	s := newSpillStore(t, 100, 60, -1)
	s.Put("shuf/1", "path-string", 50) // unspillable by the test codec
	s.Put("shuf/2", "path-string", 50)
	if !s.InMemory("shuf/1") || !s.InMemory("shuf/2") {
		t.Error("unspillable pinned block dropped")
	}
	if got := s.PinnedBytes(); got != 100 {
		t.Errorf("pinned bytes = %d, want 100 (over budget but resident)", got)
	}
}

// TestPutDisk: the DISK_ONLY write path stores straight to disk,
// replaces any memory copy on success, and leaves the store unchanged
// on failure so callers can fall back.
func TestPutDisk(t *testing.T) {
	s := newSpillStore(t, 100, 0, -1)
	if !s.PutDisk("k", block(7), 40) {
		t.Fatal("PutDisk failed")
	}
	if s.InMemory("k") {
		t.Error("DISK_ONLY block resident in memory")
	}
	if v, ok := s.GetSpilled("k"); !ok || v.([]any)[0].(int64) != 7 {
		t.Errorf("disk read = %v %v", v, ok)
	}
	// Failure leaves an existing memory copy alone.
	s.PutEvictable("m", 42, 10)
	if s.PutDisk("m", "unencodable", 10) {
		t.Error("unspillable PutDisk reported success")
	}
	if v, ok := s.Get("m"); !ok || v.(int) != 42 {
		t.Errorf("failed PutDisk destroyed the memory copy: %v %v", v, ok)
	}
	// No disk tier at all: PutDisk reports failure.
	bare := NewBoundedBlockStore(100)
	if bare.PutDisk("x", block(1), 10) {
		t.Error("PutDisk without a disk tier reported success")
	}
}

// TestDiskStoreConcurrent hammers a tiered store with concurrent
// spills, reads, promotes, deletes and wipes; run under -race this is
// the disk-tier race suite.
func TestDiskStoreConcurrent(t *testing.T) {
	s := newSpillStore(t, 2048, 512, 4096)
	s.SetOnEvict(func(string, int64, bool) {})
	s.SetOnDiskEvict(func(string, int64) {})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("k%d", (g*29+i)%48)
				switch i % 8 {
				case 0:
					s.PutEvictableSpillable(key, block(int64(i)), int64(96+(g*i)%128))
				case 1:
					s.Get(key)
				case 2:
					s.GetSpilled(key)
				case 3:
					s.Delete(key)
				case 4:
					s.Put("shuf/"+key, block(int64(g)), 64)
				case 5:
					s.PutDisk("d/"+key, block(int64(i)), 80)
				case 6:
					s.Contains(key)
					s.ApproxBytes()
					s.Disk().ApproxBytes()
					s.Keys()
				case 7:
					if i%200 == 0 {
						s.Wipe()
					} else {
						s.PutEvictableIfRoomSpillable(key, block(int64(i)), 64)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s.Wipe()
	if s.Len() != 0 || s.ApproxBytes() != 0 || s.Disk().Len() != 0 || s.Disk().ApproxBytes() != 0 {
		t.Errorf("after final Wipe: len=%d bytes=%d diskLen=%d diskBytes=%d",
			s.Len(), s.ApproxBytes(), s.Disk().Len(), s.Disk().ApproxBytes())
	}
}

// TestClusterSpillMetricsAndObserver: spills are visible in the
// dispatch metrics and the eviction observer reports spilled=true, so
// the RDD tracker keeps the location.
func TestClusterSpillMetricsAndObserver(t *testing.T) {
	c := newTest(t, Config{Workers: 1, Slots: 1, WorkerMemoryBytes: 256, WorkerDiskBytes: -1})
	var mu sync.Mutex
	type ev struct {
		key     string
		spilled bool
	}
	var seen []ev
	c.SetEvictionObserver(func(worker int, key string, size int64, spilled bool) {
		mu.Lock()
		seen = append(seen, ev{key, spilled})
		mu.Unlock()
	})
	r := <-c.Submit(&Task{Fn: func(w *Worker) (any, error) {
		w.Store().PutEvictableSpillable("cache/a", block(1), 200)
		w.Store().PutEvictableSpillable("cache/b", block(2), 200)
		return nil, nil
	}})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := c.Metrics().SpilledBlocks.Load(); got != 1 {
		t.Errorf("SpilledBlocks = %d, want 1", got)
	}
	if got := c.Metrics().CacheEvictions.Load(); got != 0 {
		t.Errorf("CacheEvictions = %d, want 0 (the victim spilled)", got)
	}
	ds := c.DiskTierStats()
	if ds.SpilledBlocks != 1 || ds.BytesSpilled != 200 {
		t.Errorf("DiskTierStats = %+v, want 1 block/200 bytes", ds)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != (ev{"cache/a", true}) {
		t.Errorf("observer saw %v, want [{cache/a true}]", seen)
	}
}

// TestClusterCloseRemovesSpillDirs: closing the cluster removes its
// temp spill root.
func TestClusterCloseRemovesSpillDirs(t *testing.T) {
	c := New(Config{Workers: 2, Slots: 1, WorkerMemoryBytes: 64, WorkerDiskBytes: -1})
	r := <-c.Submit(&Task{Fn: func(w *Worker) (any, error) {
		w.Store().PutEvictableSpillable("a", block(1), 60)
		w.Store().PutEvictableSpillable("b", block(2), 60)
		return nil, nil
	}})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	root := c.spillRoot
	if root == "" {
		t.Fatal("no spill root created")
	}
	c.Close()
	if _, err := os.Stat(root); !os.IsNotExist(err) {
		t.Errorf("spill root %s survives Close (err=%v)", root, err)
	}
}

// TestSpillRejectsInfeasibleBeforeEncoding: a block larger than the
// whole disk budget is refused without paying for its encoding.
func TestSpillRejectsInfeasibleBeforeEncoding(t *testing.T) {
	d := NewDiskStore(t.TempDir(), 100)
	before := testEncodes.Load()
	if ok, dropped := d.Spill("big", block(1, 2, 3), 101); ok || len(dropped) != 0 {
		t.Fatalf("infeasible block: ok=%v dropped=%d", ok, len(dropped))
	}
	if n := testEncodes.Load() - before; n != 0 {
		t.Errorf("infeasible block was encoded %d times", n)
	}
	if ok, _ := d.Spill("fits", block(1), 100); !ok {
		t.Fatal("a block at the budget was rejected")
	}
	if n := testEncodes.Load() - before; n != 1 {
		t.Errorf("%d encodes for one feasible spill", n)
	}
}

// TestDiskGetDecodesOutsideLock: the decode runs without the tier's
// lock — a decode that spills the same key would deadlock otherwise —
// and a failed decode drops the entry only when it is still the one
// that was read: here the key was re-spilled meanwhile, so the new
// copy survives.
func TestDiskGetDecodesOutsideLock(t *testing.T) {
	d := NewDiskStore(t.TempDir(), -1)
	if ok, _ := d.Spill("k", block(1), 10); !ok {
		t.Fatal("spill failed")
	}
	hook := func() error {
		testDecodeHook.Store(nil)
		if ok, _ := d.Spill("k", block(2), 10); !ok {
			return errors.New("re-spill failed")
		}
		return errors.New("corrupt")
	}
	testDecodeHook.Store(&hook)
	defer testDecodeHook.Store(nil)
	if _, ok := d.Get("k"); ok {
		t.Fatal("failed decode reported a hit")
	}
	v, ok := d.Get("k")
	if !ok || v.([]any)[0] != int64(2) {
		t.Fatalf("re-spilled block lost: %v %v", v, ok)
	}
	// A failed decode of the current entry drops it.
	fail := func() error { return errors.New("corrupt") }
	testDecodeHook.Store(&fail)
	if _, ok := d.Get("k"); ok {
		t.Fatal("failed decode reported a hit")
	}
	testDecodeHook.Store(nil)
	if d.Contains("k") || d.Len() != 0 || d.ApproxBytes() != 0 {
		t.Errorf("undecodable block kept: len=%d bytes=%d", d.Len(), d.ApproxBytes())
	}
}

// TestDiskStoreConcurrentGetSpillDelete runs concurrent reads, spills
// and deletes on one key set of a bare disk tier; under -race it
// checks the unlocked decode. Every hit must return the block spilled
// under that key.
func TestDiskStoreConcurrentGetSpillDelete(t *testing.T) {
	d := NewDiskStore(t.TempDir(), 64*16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (g + i) % 12
				key := fmt.Sprintf("k%d", k)
				switch i % 3 {
				case 0:
					d.Spill(key, block(int64(k), int64(i)), 64+int64(i%64))
				case 1:
					if v, ok := d.Get(key); ok && v.([]any)[0] != int64(k) {
						t.Errorf("Get(%s) returned block %v", key, v)
					}
				case 2:
					d.Delete(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if d.ApproxBytes() > d.Capacity() {
		t.Errorf("tier holds %d bytes over its %d budget", d.ApproxBytes(), d.Capacity())
	}
	for _, k := range d.Keys() {
		if _, ok := d.Get(k); !ok {
			t.Errorf("listed block %s unreadable", k)
		}
	}
}
