package cache

// This file keeps the original dense LLC layout as a test-only oracle:
// every set's ways and LRU stack exist from construction, carved out of
// two flat arrays. The access, fill, flush and MSHR logic below is the
// pre-sparse Cache verbatim, so the differential test can require the
// production cache to match it operation for operation.

type refLine struct {
	tag   int64
	valid bool
	dirty bool
}

type refCache struct {
	cfg     Config
	sets    [][]refLine
	lru     [][]int8 // per-set LRU stack: lru[s][0] = most recent way
	nsets   int
	backend Backend

	mshrs map[int64]*mshr

	ring  [][]func()
	cycle int64

	Stats   Stats
	PerCore []Stats
}

// newRef builds the dense reference over a configuration New accepted.
func newRef(cfg Config, backend Backend, cores int) *refCache {
	nsets := int(cfg.SizeBytes / int64(cfg.LineBytes) / int64(cfg.Assoc))
	cfg.HitLatency = max(cfg.HitLatency, 1)
	cfg.MSHRs = max(cfg.MSHRs, 1)
	c := &refCache{
		cfg:     cfg,
		nsets:   nsets,
		backend: backend,
		mshrs:   make(map[int64]*mshr),
		ring:    make([][]func(), cfg.HitLatency+1),
		PerCore: make([]Stats, cores),
	}
	lineBuf := make([]refLine, nsets*cfg.Assoc)
	lruBuf := make([]int8, nsets*cfg.Assoc)
	c.sets = make([][]refLine, nsets)
	c.lru = make([][]int8, nsets)
	for i := range c.sets {
		lo, hi := i*cfg.Assoc, (i+1)*cfg.Assoc
		c.sets[i] = lineBuf[lo:hi:hi]
		order := lruBuf[lo:hi:hi]
		for w := range order {
			order[w] = int8(w)
		}
		c.lru[i] = order
	}
	return c
}

func (c *refCache) Tick() {
	c.cycle++
	slot := c.cycle % int64(len(c.ring))
	for _, fn := range c.ring[slot] {
		fn()
	}
	c.ring[slot] = c.ring[slot][:0]
}

func (c *refCache) schedule(delay int, fn func()) {
	if delay < 1 {
		delay = 1
	}
	slot := (c.cycle + int64(delay)) % int64(len(c.ring))
	c.ring[slot] = append(c.ring[slot], fn)
}

func (c *refCache) lineAddr(addr int64) int64 { return addr / int64(c.cfg.LineBytes) }

func (c *refCache) setOf(la int64) int { return int(la & int64(c.nsets-1)) }

func (c *refCache) touch(s, way int) {
	order := c.lru[s]
	for i, w := range order {
		if int(w) == way {
			copy(order[1:i+1], order[:i])
			order[0] = int8(way)
			return
		}
	}
}

func (c *refCache) lookup(la int64) (set, way int) {
	s := c.setOf(la)
	for w := range c.sets[s] {
		if c.sets[s][w].valid && c.sets[s][w].tag == la {
			return s, w
		}
	}
	return s, -1
}

func (c *refCache) install(req int, la int64, dirty bool) {
	s := c.setOf(la)
	order := c.lru[s]
	victim := int(order[len(order)-1])
	for w := range c.sets[s] { // prefer an invalid way
		if !c.sets[s][w].valid {
			victim = w
			break
		}
	}
	v := &c.sets[s][victim]
	if v.valid && v.dirty {
		c.Stats.Writebacks++
		c.backend.EnqueueWrite(req, v.tag*int64(c.cfg.LineBytes))
	}
	*v = refLine{tag: la, valid: true, dirty: dirty}
	c.touch(s, victim)
}

func (c *refCache) account(core int, hit bool) {
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

func (c *refCache) access(core int, addr int64, write bool, onDone func()) bool {
	la := c.lineAddr(addr)
	if s, w := c.lookup(la); w >= 0 {
		c.account(core, true)
		c.touch(s, w)
		if write {
			c.sets[s][w].dirty = true
		}
		if onDone != nil {
			c.schedule(c.cfg.HitLatency, onDone)
		}
		return true
	}
	if m, ok := c.mshrs[la]; ok {
		c.Stats.MSHRMerges++
		c.account(core, false)
		if write {
			m.dirty = true
		}
		if onDone != nil {
			m.waiters = append(m.waiters, onDone)
		}
		return true
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		return false
	}
	m := &mshr{lineAddr: la, req: core, dirty: write}
	if onDone != nil {
		m.waiters = append(m.waiters, onDone)
	}
	c.mshrs[la] = m
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

func (c *refCache) Read(core int, addr int64, onDone func()) bool {
	return c.access(core, addr, false, onDone)
}

func (c *refCache) ReadUncached(core int, addr int64, onDone func()) bool {
	la := c.lineAddr(addr)
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
	if s, w := c.lookup(la); w >= 0 {
		if c.sets[s][w].dirty {
			c.Stats.Writebacks++
			c.backend.EnqueueWrite(core, la*int64(c.cfg.LineBytes))
		}
		c.sets[s][w] = refLine{}
	}
	c.account(core, false)
	return true
}

func (c *refCache) Write(core int, addr int64) bool {
	return c.access(core, addr, true, nil)
}

func (c *refCache) ResetStats() {
	c.Stats = Stats{}
	for i := range c.PerCore {
		c.PerCore[i] = Stats{}
	}
}
