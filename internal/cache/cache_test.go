package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// fakeMem records backend traffic (with requester attribution) and
// completes reads on demand.
type fakeMem struct {
	reads     []int64
	writes    []int64
	readReqs  []int
	writeReqs []int
	pending   []func()
	rejectRd  bool
}

func (f *fakeMem) EnqueueRead(requester int, addr int64, onDone func()) bool {
	if f.rejectRd {
		return false
	}
	f.reads = append(f.reads, addr)
	f.readReqs = append(f.readReqs, requester)
	f.pending = append(f.pending, onDone)
	return true
}

func (f *fakeMem) EnqueueWrite(requester int, addr int64) {
	f.writes = append(f.writes, addr)
	f.writeReqs = append(f.writeReqs, requester)
}

// complete fires the i-th outstanding read, letting tests finish fills
// in any order.
func (f *fakeMem) complete(i int) {
	fn := f.pending[i]
	f.pending = append(f.pending[:i], f.pending[i+1:]...)
	fn()
}

func (f *fakeMem) completeAll() {
	for _, fn := range f.pending {
		fn()
	}
	f.pending = nil
}

func smallConfig() Config {
	return Config{SizeBytes: 8192, Assoc: 2, LineBytes: 64, HitLatency: 3, MSHRs: 4}
}

func newCache(t *testing.T, mem *fakeMem) *Cache {
	t.Helper()
	c, err := New(smallConfig(), mem, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	mem := &fakeMem{}
	if _, err := New(Config{}, mem, 1); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(Config{SizeBytes: 1000, Assoc: 3, LineBytes: 64}, mem, 1); err == nil {
		t.Error("non-power-of-two set count accepted")
	}
	// LRU stacks hold int8 way numbers: wider sets would wrap them.
	if _, err := New(Config{SizeBytes: 200 * 64, Assoc: 200, LineBytes: 64}, mem, 1); err == nil {
		t.Error("associativity above 127 accepted")
	}
	if _, err := New(Config{SizeBytes: 127 * 64, Assoc: 127, LineBytes: 64}, mem, 1); err != nil {
		t.Errorf("associativity 127 rejected: %v", err)
	}
}

// TestNewAllocBound is the allocation gate of cache construction: New
// sizes only the set index, so building a Table 6 LLC (32,768 sets) must
// not allocate its 16 MiB of ways up front. The dense layout allocated
// about 5.8 MiB here, once per simulated core mix.
func TestNewAllocBound(t *testing.T) {
	const bound = 256 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := New(Table6Config(), &fakeMem{}, 8)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(c)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("New(Table6Config()) allocated %d bytes, want <= %d", got, bound)
	}
}

// TestSparseMatchesDense drives the production cache and the dense
// reference layout (reference_test.go) with one seeded random stream of
// reads, writes, flush+loads, ticks, out-of-order fill completions and
// stats resets from three requesters, with the backend rejecting some
// reads. Every operation must be accepted or rejected alike, every
// counter must agree after every operation, and the backends must see
// the same read and writeback streams and the same callback order.
func TestSparseMatchesDense(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"small", smallConfig()},
		{"table6", Table6Config()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				diffRun(t, tc.cfg, seed, 20000)
			}
		})
	}
}

func diffRun(t *testing.T, cfg Config, seed int64, ops int) {
	t.Helper()
	const cores = 3
	gotMem, refMem := &fakeMem{}, &fakeMem{}
	got, err := New(cfg, gotMem, cores)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(cfg, refMem, cores)
	var gotDone, refDone []int
	rng := rand.New(rand.NewSource(seed))

	// Most traffic lands on a few hot sets, with tags spread over three
	// times the associativity, so sets fill, evict and write back.
	nsets := cfg.SizeBytes / int64(cfg.LineBytes) / int64(cfg.Assoc)
	hot := make([]int64, 8)
	for i := range hot {
		hot[i] = rng.Int63n(nsets)
	}
	addr := func() int64 {
		set := hot[rng.Intn(len(hot))]
		if rng.Intn(10) == 0 {
			set = rng.Int63n(nsets)
		}
		tag := rng.Int63n(int64(3 * cfg.Assoc))
		return (tag*nsets+set)*int64(cfg.LineBytes) + rng.Int63n(int64(cfg.LineBytes))
	}

	var backendRejects, mshrRejects, outOfOrder, hits int
	for op := 0; op < ops; op++ {
		hitsBefore := got.Stats.Hits
		reject := rng.Intn(8) == 0
		gotMem.rejectRd, refMem.rejectRd = reject, reject
		core := rng.Intn(cores)
		id := op
		gotCB := func() { gotDone = append(gotDone, id) }
		refCB := func() { refDone = append(refDone, id) }
		var gotOK, refOK bool
		access := true
		switch r := rng.Intn(100); {
		case r < 35:
			a := addr()
			gotOK, refOK = got.Read(core, a, gotCB), ref.Read(core, a, refCB)
		case r < 55:
			a := addr()
			gotOK, refOK = got.Write(core, a), ref.Write(core, a)
		case r < 62:
			a := addr()
			gotOK, refOK = got.ReadUncached(core, a, gotCB), ref.ReadUncached(core, a, refCB)
		case r < 80:
			access = false
			got.Tick()
			ref.Tick()
		case r < 99:
			access = false
			if len(gotMem.pending) != len(refMem.pending) {
				t.Fatalf("seed %d op %d: %d pending fills, reference %d", seed, op, len(gotMem.pending), len(refMem.pending))
			}
			if n := len(gotMem.pending); n > 0 {
				i := rng.Intn(n)
				if i > 0 {
					outOfOrder++
				}
				gotMem.complete(i)
				refMem.complete(i)
			}
		default:
			access = false
			got.ResetStats()
			ref.ResetStats()
		}
		if gotOK != refOK {
			t.Fatalf("seed %d op %d: accepted %v, reference %v", seed, op, gotOK, refOK)
		}
		if access && got.Stats.Hits > hitsBefore {
			hits++
		}
		if access && !gotOK {
			if reject {
				backendRejects++
			} else {
				mshrRejects++
			}
		}
		if got.Stats != ref.Stats || !reflect.DeepEqual(got.PerCore, ref.PerCore) {
			t.Fatalf("seed %d op %d: stats %+v %+v, reference %+v %+v", seed, op, got.Stats, got.PerCore, ref.Stats, ref.PerCore)
		}
		if len(gotMem.writes) != len(refMem.writes) || len(gotMem.reads) != len(refMem.reads) || len(gotDone) != len(refDone) {
			t.Fatalf("seed %d op %d: traffic diverged", seed, op)
		}
	}
	for _, cmp := range []struct {
		what     string
		got, ref any
	}{
		{"read addresses", gotMem.reads, refMem.reads},
		{"read requesters", gotMem.readReqs, refMem.readReqs},
		{"writeback addresses", gotMem.writes, refMem.writes},
		{"writeback requesters", gotMem.writeReqs, refMem.writeReqs},
		{"callback order", gotDone, refDone},
	} {
		if !reflect.DeepEqual(cmp.got, cmp.ref) {
			t.Errorf("seed %d: %s differ from the reference", seed, cmp.what)
		}
	}
	// The stream must have exercised every path it claims to cover.
	coverage := fmt.Sprintf("%d hits, %d backend rejects, %d MSHR rejects, %d out-of-order fills, %d writebacks",
		hits, backendRejects, mshrRejects, outOfOrder, len(gotMem.writes))
	if hits == 0 || backendRejects == 0 || mshrRejects == 0 || outOfOrder == 0 || len(gotMem.writes) == 0 {
		t.Errorf("seed %d: stream misses a path: %s", seed, coverage)
	}
	t.Logf("seed %d: %s", seed, coverage)
}

func TestMissThenHit(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)

	done := false
	if !c.Read(0, 0x1000, func() { done = true }) {
		t.Fatal("read rejected")
	}
	if len(mem.reads) != 1 {
		t.Fatalf("backend reads = %d", len(mem.reads))
	}
	mem.completeAll()
	if !done {
		t.Fatal("miss callback not fired")
	}

	// Second access: hit, served after HitLatency ticks, no new traffic.
	hit := false
	if !c.Read(0, 0x1000, func() { hit = true }) {
		t.Fatal("hit rejected")
	}
	if len(mem.reads) != 1 {
		t.Error("hit generated backend traffic")
	}
	for i := 0; i < smallConfig().HitLatency+1; i++ {
		c.Tick()
	}
	if !hit {
		t.Fatal("hit callback not fired after HitLatency")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestMSHRMerging(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)
	fired := 0
	c.Read(0, 0x2000, func() { fired++ })
	c.Read(1, 0x2010, func() { fired++ }) // same line
	if len(mem.reads) != 1 {
		t.Fatalf("merged miss issued %d reads", len(mem.reads))
	}
	if c.Stats.MSHRMerges != 1 {
		t.Errorf("merges = %d", c.Stats.MSHRMerges)
	}
	mem.completeAll()
	if fired != 2 {
		t.Fatalf("fired = %d, want both waiters", fired)
	}
}

func TestMSHRLimitRejects(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)
	for i := 0; i < 4; i++ {
		if !c.Read(0, int64(i)*64, func() {}) {
			t.Fatalf("read %d rejected below MSHR limit", i)
		}
	}
	if c.Read(0, 5*64, func() {}) {
		t.Error("read accepted beyond MSHR limit")
	}
	mem.completeAll()
	if !c.Read(0, 6*64, func() {}) {
		t.Error("read rejected after MSHRs freed")
	}
}

func TestBackendRejectionPropagates(t *testing.T) {
	mem := &fakeMem{rejectRd: true}
	c := newCache(t, mem)
	if c.Read(0, 0, func() {}) {
		t.Error("read accepted when the controller queue is full")
	}
	mem.rejectRd = false
	if !c.Read(0, 0, func() {}) {
		t.Error("retry rejected")
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)

	// Write miss: allocate (fetch) and mark dirty.
	if !c.Write(0, 0x40) {
		t.Fatal("write rejected")
	}
	if len(mem.reads) != 1 {
		t.Fatalf("write-allocate issued %d fetches", len(mem.reads))
	}
	mem.completeAll()

	// Evict the dirty line by filling its set (2-way: two more lines
	// mapping to set of 0x40). Set count = 8192/64/2 = 64 sets; lines
	// mapping to set 1: addresses 64 + k*64*64.
	conflict1 := int64(0x40 + 64*64)
	conflict2 := int64(0x40 + 2*64*64)
	c.Read(0, conflict1, func() {})
	mem.completeAll()
	c.Read(0, conflict2, func() {})
	mem.completeAll()
	if len(mem.writes) != 1 || mem.writes[0] != 0x40 {
		t.Fatalf("writebacks = %v, want [0x40]", mem.writes)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writeback stat = %d", c.Stats.Writebacks)
	}
}

func TestLRUKeepsHotLine(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)
	// Fill a 2-way set with lines A and B; touch A; add C. B must be the
	// victim, A must survive.
	a := int64(0)
	bAddr := int64(64 * 64)
	cAddr := int64(2 * 64 * 64)
	c.Read(0, a, func() {})
	mem.completeAll()
	c.Read(0, bAddr, func() {})
	mem.completeAll()
	c.Read(0, a, func() {}) // touch A
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	c.Read(0, cAddr, func() {})
	mem.completeAll()
	reads := len(mem.reads)
	c.Read(0, a, func() {}) // must still hit
	if len(mem.reads) != reads {
		t.Error("LRU evicted the recently used line")
	}
}

func TestRequesterAttribution(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)

	// Miss: the backend read carries the allocating requester.
	if !c.Read(5, 0x40, func() {}) {
		t.Fatal("read rejected")
	}
	if len(mem.readReqs) != 1 || mem.readReqs[0] != 5 {
		t.Fatalf("miss requesters = %v, want [5]", mem.readReqs)
	}
	mem.completeAll()

	// Dirty the line as requester 1, then evict it with fills from
	// requester 2: the writeback is attributed to the evicting requester.
	if !c.Write(1, 0x40) {
		t.Fatal("write rejected")
	}
	c.Read(2, 0x40+64*64, func() {})
	mem.completeAll()
	c.Read(2, 0x40+2*64*64, func() {})
	mem.completeAll()
	if len(mem.writeReqs) != 1 || mem.writeReqs[0] != 2 {
		t.Fatalf("writeback requesters = %v, want [2]", mem.writeReqs)
	}

	// Flush+load: the uncached read and its flush writeback both carry
	// the flushing requester.
	if !c.Write(1, 0x80) {
		t.Fatal("write rejected")
	}
	mem.completeAll() // line now cached dirty
	if !c.ReadUncached(4, 0x80, func() {}) {
		t.Fatal("uncached read rejected")
	}
	last := len(mem.readReqs) - 1
	if mem.readReqs[last] != 4 {
		t.Errorf("uncached read requester = %d, want 4", mem.readReqs[last])
	}
	if got := mem.writeReqs[len(mem.writeReqs)-1]; got != 4 {
		t.Errorf("flush writeback requester = %d, want 4", got)
	}
}

func TestPerCoreStats(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)
	c.Read(0, 0, func() {})
	c.Read(1, 64*64, func() {})
	mem.completeAll()
	if c.PerCore[0].Misses != 1 || c.PerCore[1].Misses != 1 {
		t.Errorf("per-core stats: %+v", c.PerCore)
	}
	if got := c.PerCore[0].MPKI(1000); got != 1 {
		t.Errorf("MPKI = %v, want 1", got)
	}
	c.ResetStats()
	if c.Stats.Accesses != 0 || c.PerCore[0].Misses != 0 {
		t.Error("ResetStats incomplete")
	}
}
