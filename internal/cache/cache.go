// Package cache models the shared last-level cache of the simulated
// system (Table 6: 16 MiB, 8-way, 64 B lines): LRU replacement,
// write-back/write-allocate, and MSHR-based miss handling in front of the
// memory controller. Set state is allocated per touched set, on the set's
// first fill, so a short run pays for the sets it uses, not for 16 MiB.
package cache

import (
	"errors"
	"fmt"
	"math"
)

// Backend is the memory side of the cache (the memory controller).
// EnqueueRead returns false when the read queue is full — the cache then
// rejects the access and the core retries. Writebacks must always be
// accepted (the controller keeps a write backlog). Every request carries
// the requester (source/thread) ID of the access that caused it, so the
// controller can attribute queue pressure and activations per source:
// misses carry the requester that allocated the MSHR, writebacks the
// requester whose fill or flush evicted the dirty line.
type Backend interface {
	EnqueueRead(requester int, addr int64, onDone func()) bool
	EnqueueWrite(requester int, addr int64)
}

// Config sizes the cache.
type Config struct {
	SizeBytes  int64
	Assoc      int
	LineBytes  int
	HitLatency int // CPU cycles from access to data for a hit
	MSHRs      int // outstanding distinct line misses
}

// Table6Config is the paper's LLC: 16 MiB, 8-way, 64 B lines. Hit latency
// approximates a three-level hierarchy's LLC round trip; MSHRs allow full
// memory-level parallelism across the 8-core window.
func Table6Config() Config {
	return Config{
		SizeBytes:  16 << 20,
		Assoc:      8,
		LineBytes:  64,
		HitLatency: 30,
		MSHRs:      64,
	}
}

// line packs one way as (tag+1)<<1 | dirty, where tag is the line
// address; the zero line is an invalid way. Tags are line numbers of
// nonnegative physical addresses, far below the 2^62 the packing holds.
type line uint64

func makeLine(la int64, dirty bool) line {
	l := line(la+1) << 1
	if dirty {
		l |= 1
	}
	return l
}

func (l line) dirty() bool { return l&1 != 0 }

func (l line) tag() int64 { return int64(l>>1) - 1 }

type mshr struct {
	lineAddr int64
	req      int // requester that allocated the miss (merges ride along)
	waiters  []func()
	dirty    bool // a write merged into this fill
}

// Stats counts cache activity, per requester and total.
type Stats struct {
	Accesses, Hits, Misses int64
	Writebacks             int64
	MSHRMerges             int64
}

// Cache is a set-associative LLC. It is driven in the CPU clock domain:
// call Tick once per CPU cycle.
type Cache struct {
	cfg   Config
	nsets int
	// block maps a set to 1 + its block index; 0 marks a set no fill has
	// reached, which behaves exactly like a set of invalid ways.
	block   []int32
	lines   []line // Assoc ways per block, blocks in first-fill order
	lru     []int8 // per-block LRU stack: lru[b*Assoc] = most recent way
	backend Backend

	mshrs map[int64]*mshr

	// hit-latency delay ring: ring[cycle % len] holds callbacks due.
	ring     [][]func()
	cycle    int64
	npending int // callbacks waiting in the ring

	Stats    Stats
	PerCore  []Stats
	nrequest int
}

// New builds a cache over the backend for n requesters (cores). Only the
// set index is sized by the configuration; a set's ways and LRU stack
// are allocated on its first fill (addBlock), because a short simulation
// touches a few percent of a 16 MiB LLC's sets.
func New(cfg Config, backend Backend, cores int) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Assoc <= 0 || cfg.LineBytes <= 0 {
		return nil, errors.New("cache: size, associativity and line size must be positive")
	}
	if cfg.Assoc > math.MaxInt8 {
		return nil, fmt.Errorf("cache: associativity %d exceeds %d (LRU stacks hold int8 way numbers)", cfg.Assoc, math.MaxInt8)
	}
	nsets := int(cfg.SizeBytes / int64(cfg.LineBytes) / int64(cfg.Assoc))
	if nsets == 0 {
		return nil, errors.New("cache: fewer than one set")
	}
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d must be a power of two", nsets)
	}
	if nsets > math.MaxInt32 {
		return nil, fmt.Errorf("cache: set count %d exceeds %d (block indices are int32)", nsets, math.MaxInt32)
	}
	if cfg.HitLatency < 1 {
		cfg.HitLatency = 1
	}
	if cfg.MSHRs < 1 {
		cfg.MSHRs = 1
	}
	return &Cache{
		cfg:     cfg,
		nsets:   nsets,
		block:   make([]int32, nsets),
		backend: backend,
		mshrs:   make(map[int64]*mshr),
		ring:    make([][]func(), cfg.HitLatency+1),
		PerCore: make([]Stats, cores),
	}, nil
}

// Tick advances the CPU clock and fires due hit callbacks.
func (c *Cache) Tick() {
	c.cycle++
	slot := c.cycle % int64(len(c.ring))
	if fns := c.ring[slot]; len(fns) > 0 {
		c.npending -= len(fns)
		for _, fn := range fns {
			fn()
		}
		c.ring[slot] = c.ring[slot][:0]
	}
}

// AdvanceIdle advances the CPU clock n cycles without firing anything.
// Legal only when no ring callback is due in the window — the caller must
// cap n below NextPendingCycle()-Cycle().
//
//rhlint:hotpath
func (c *Cache) AdvanceIdle(n int64) { c.cycle += n }

// Cycle returns the cache's current CPU cycle.
func (c *Cache) Cycle() int64 { return c.cycle }

// NextPendingCycle returns the cycle at which the earliest scheduled hit
// callback fires, or -1 when the ring is empty. Every scheduled callback
// is due within the next len(ring)-1 cycles, so occupied slots map back
// to absolute cycles unambiguously.
//
//rhlint:hotpath
func (c *Cache) NextPendingCycle() int64 {
	if c.npending == 0 {
		return -1
	}
	l := int64(len(c.ring))
	best := int64(-1)
	for s := int64(0); s < l; s++ {
		if len(c.ring[s]) == 0 {
			continue
		}
		d := (s - c.cycle) % l
		if d <= 0 {
			d += l
		}
		if best == -1 || c.cycle+d < best {
			best = c.cycle + d
		}
	}
	return best
}

// PendingWithin reports whether any ring callback fires within the next
// k cycles — a cheap gate (k slot probes) in front of the full
// NextPendingCycle scan for callers that only care about short windows.
//
//rhlint:hotpath
func (c *Cache) PendingWithin(k int64) bool {
	if c.npending == 0 {
		return false
	}
	l := int64(len(c.ring))
	if k >= l {
		return true // every pending callback is due within l-1 cycles
	}
	for d := int64(1); d <= k; d++ {
		if len(c.ring[(c.cycle+d)%l]) > 0 {
			return true
		}
	}
	return false
}

func (c *Cache) schedule(delay int, fn func()) {
	if delay < 1 {
		delay = 1
	}
	slot := (c.cycle + int64(delay)) % int64(len(c.ring))
	//rhlint:allow hotalloc(amortized: Tick truncates fired slots to length 0, so slot capacity is reused across cycles)
	c.ring[slot] = append(c.ring[slot], fn)
	c.npending++
}

func (c *Cache) lineAddr(addr int64) int64 { return addr / int64(c.cfg.LineBytes) }

func (c *Cache) setOf(la int64) int { return int(la & int64(c.nsets-1)) }

// set returns set s's ways and LRU stack, both nil when no fill has
// reached the set yet.
func (c *Cache) set(s int) (ways []line, order []int8) {
	b := int(c.block[s]) - 1
	if b < 0 {
		return nil, nil
	}
	lo, hi := b*c.cfg.Assoc, (b+1)*c.cfg.Assoc
	return c.lines[lo:hi:hi], c.lru[lo:hi:hi]
}

// addBlock appends set s's block on its first fill: every way invalid,
// LRU stack in way order. The slab doubles when full, which keeps its
// total allocation within a small multiple of the touched sets' size
// (append's ~1.25x growth copied the slab several times as often).
func (c *Cache) addBlock(s int) {
	a := c.cfg.Assoc
	if len(c.lines)+a > cap(c.lines) {
		grown := max(2*cap(c.lines), 16*a)
		c.lines = append(make([]line, 0, grown), c.lines...)
		c.lru = append(make([]int8, 0, grown), c.lru...)
	}
	c.block[s] = int32(len(c.lines)/a) + 1
	c.lines = append(c.lines, make([]line, a)...)
	for w := 0; w < a; w++ {
		c.lru = append(c.lru, int8(w))
	}
}

// touch moves way to the MRU position of an LRU stack.
func touch(order []int8, way int) {
	for i, w := range order {
		if int(w) == way {
			copy(order[1:i+1], order[:i])
			order[0] = int8(way)
			return
		}
	}
}

// lookup returns the ways and LRU stack of la's set and the way holding
// la, or -1.
func (c *Cache) lookup(la int64) (ways []line, order []int8, way int) {
	ways, order = c.set(c.setOf(la))
	want := makeLine(la, false)
	for w, l := range ways {
		if l&^1 == want {
			return ways, order, w
		}
	}
	return ways, order, -1
}

// install fills la into its set, evicting LRU (writing back if dirty).
// req attributes the eviction's writeback to the requester whose fill
// displaced the victim line.
func (c *Cache) install(req int, la int64, dirty bool) {
	s := c.setOf(la)
	if c.block[s] == 0 {
		c.addBlock(s)
	}
	ways, order := c.set(s)
	victim := int(order[len(order)-1])
	for w, l := range ways { // prefer an invalid way
		if l == 0 {
			victim = w
			break
		}
	}
	if v := ways[victim]; v.dirty() {
		c.Stats.Writebacks++
		c.backend.EnqueueWrite(req, v.tag()*int64(c.cfg.LineBytes))
	}
	ways[victim] = makeLine(la, dirty)
	touch(order, victim)
}

func (c *Cache) account(core int, hit bool) {
	c.Stats.Accesses++
	if hit {
		c.Stats.Hits++
	} else {
		c.Stats.Misses++
	}
	if core >= 0 && core < len(c.PerCore) {
		c.PerCore[core].Accesses++
		if hit {
			c.PerCore[core].Hits++
		} else {
			c.PerCore[core].Misses++
		}
	}
}

// access implements both reads and writes; onDone fires when the data is
// available (reads) or the line is owned (writes). It returns false when
// the access cannot be accepted this cycle (MSHRs or the controller's
// read queue are full) — the caller must retry.
func (c *Cache) access(core int, addr int64, write bool, onDone func()) bool {
	la := c.lineAddr(addr)
	if ways, order, w := c.lookup(la); w >= 0 {
		c.account(core, true)
		touch(order, w)
		if write {
			ways[w] |= 1
		}
		if onDone != nil {
			c.schedule(c.cfg.HitLatency, onDone)
		}
		return true
	}
	// Miss: merge into an in-flight fill when possible.
	if m, ok := c.mshrs[la]; ok {
		c.Stats.MSHRMerges++
		c.account(core, false)
		if write {
			m.dirty = true
		}
		if onDone != nil {
			//rhlint:allow hotalloc(miss path: waiter growth is bounded by in-flight misses and amortized against DRAM fill latency)
			m.waiters = append(m.waiters, onDone)
		}
		return true
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		return false
	}
	//rhlint:allow hotalloc(miss path: one MSHR per outstanding miss, bounded by cfg.MSHRs and amortized against DRAM fill latency)
	m := &mshr{lineAddr: la, req: core, dirty: write}
	if onDone != nil {
		//rhlint:allow hotalloc(miss path: waiter growth is bounded by in-flight misses and amortized against DRAM fill latency)
		m.waiters = append(m.waiters, onDone)
	}
	// Register the MSHR before handing the fill callback to the backend:
	// a backend that completes synchronously must find (and clear) it.
	c.mshrs[la] = m
	//rhlint:allow hotalloc(miss path: one fill closure per outstanding miss, amortized against DRAM fill latency)
	accepted := c.backend.EnqueueRead(core, la*int64(c.cfg.LineBytes), func() {
		delete(c.mshrs, la)
		c.install(m.req, la, m.dirty)
		for _, fn := range m.waiters {
			fn()
		}
	})
	if !accepted {
		delete(c.mshrs, la)
		return false
	}
	c.account(core, false)
	return true
}

// Read requests addr for the given requester (core/thread) ID; onDone
// fires when data is ready. The requester ID flows through to the memory
// controller for per-source attribution.
func (c *Cache) Read(core int, addr int64, onDone func()) bool {
	return c.access(core, addr, false, onDone)
}

// ReadUncached models a flush+load (the clflush-based access sequence
// RowHammer attack code uses): any cached copy of the line is invalidated
// (written back when dirty) and the load goes straight to the memory
// controller without allocating, so every replay reaches DRAM. Returns
// false when the controller's read queue rejects the request.
func (c *Cache) ReadUncached(core int, addr int64, onDone func()) bool {
	la := c.lineAddr(addr)
	// An in-flight fill for the line must complete first: ride it. The
	// subsequent replay will find the line cached, flush it, and miss.
	if m, ok := c.mshrs[la]; ok {
		c.Stats.MSHRMerges++
		c.account(core, false)
		if onDone != nil {
			m.waiters = append(m.waiters, onDone)
		}
		return true
	}
	if !c.backend.EnqueueRead(core, la*int64(c.cfg.LineBytes), onDone) {
		return false
	}
	if ways, _, w := c.lookup(la); w >= 0 {
		if ways[w].dirty() {
			c.Stats.Writebacks++
			c.backend.EnqueueWrite(core, la*int64(c.cfg.LineBytes))
		}
		ways[w] = 0
	}
	c.account(core, false)
	return true
}

// Write stores to addr (write-allocate, write-back). The done callback is
// optional: stores retire immediately in the core model.
func (c *Cache) Write(core int, addr int64) bool {
	return c.access(core, addr, true, nil)
}

// MPKI returns misses per kilo-instruction given an instruction count.
func (s Stats) MPKI(instructions int64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Misses) * 1000 / float64(instructions)
}

// ResetStats zeroes the counters (end of warmup).
func (c *Cache) ResetStats() {
	c.Stats = Stats{}
	for i := range c.PerCore {
		c.PerCore[i] = Stats{}
	}
}
