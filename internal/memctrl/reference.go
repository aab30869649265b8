package memctrl

import "repro/internal/dram"

// This file keeps the original O(queue) scheduler scans, walking the
// queues in arrival order exactly as the pre-index controller did over
// its flat slices. They are dispatched only when a test sets
// Controller.refScan: the randomized scheduler-equivalence test, which
// drives an indexed and a reference controller side by side and
// requires bit-identical command streams, and the reference Tick
// benchmark. Production controllers always run the indexed scans.

// refScheduleRowHits is the reference first-ready scan: the first
// eligible request in arrival order whose bank has its row open wins;
// candidates that fail on column timing are skipped and the walk
// continues.
func (c *Controller) refScheduleRowHits(q *reqQueue, write bool, excludeBank int, f classFilter) bool {
	for r := q.head; r != nil; {
		next := r.qnext // serveReq unlinks r on success
		if !c.classMatch(f, r) {
			r = next
			continue
		}
		if r.addr.Bank == excludeBank {
			r = next
			continue
		}
		if c.ch.OpenRow(0, r.addr.Bank) != r.addr.Row {
			r = next
			continue
		}
		if c.serveReq(q, r, write) {
			return true
		}
		r = next
	}
	return false
}

// refNextWorkScan is the reference per-request no-op-horizon scan.
func (c *Controller) refNextWorkScan() int64 {
	// States whose Tick mutates per-cycle state even without issuing:
	// a due refresh keeps closing banks, mitigation ops flip their
	// activated flag outside the command slot, and a throttling mechanism
	// is consulted (ThrottleStallCycles, sketch queries) whenever any
	// request is queued.
	if c.refPending || len(c.mitQ) > 0 ||
		(c.throttle != nil && (c.readQ.n > 0 || c.writeQ.n > 0)) {
		return c.cycle + 1
	}
	// floor is the tightest bound the scan can reach; stop as soon as it
	// does (dense queues almost always have a ready request).
	floor := c.cycle + 1
	w := c.nextREF
	for _, ev := range c.returns {
		if ev.cycle < w {
			if ev.cycle <= floor {
				return floor
			}
			w = ev.cycle
		}
	}
	for r := c.readQ.head; r != nil; r = r.qnext {
		if b := c.reqLowerBound(r); b < w {
			if b <= floor {
				return floor
			}
			w = b
		}
	}
	for r := c.writeQ.head; r != nil; r = r.qnext {
		if b := c.reqLowerBound(r); b < w {
			if b <= floor {
				return floor
			}
			w = b
		}
	}
	if c.cfg.ClosedRow {
		// closeIdleRows may precharge an untargeted open row as soon as
		// its bank allows.
		for b := 0; b < c.ch.Geo.Banks(); b++ {
			open, _, nextPRE, _, _ := c.ch.BankTimes(0, b)
			if open != -1 && nextPRE < w {
				w = nextPRE
			}
		}
	}
	if w <= c.cycle {
		w = c.cycle + 1
	}
	return w
}

// refCloseIdleRows is the reference closed-row sweep: walk every queued
// request per open bank to decide whether the row is still wanted.
func (c *Controller) refCloseIdleRows() {
	for b := 0; b < c.ch.Geo.Banks(); b++ {
		open := c.ch.OpenRow(0, b)
		if open == -1 {
			continue
		}
		wanted := false
		for r := c.readQ.head; r != nil; r = r.qnext {
			if r.addr.Bank == b && r.addr.Row == open {
				wanted = true
				break
			}
		}
		if !wanted {
			for r := c.writeQ.head; r != nil; r = r.qnext {
				if r.addr.Bank == b && r.addr.Row == open {
					wanted = true
					break
				}
			}
		}
		if !wanted && c.ch.CanIssue(dram.CmdPRE, 0, b, 0, c.cycle) {
			c.issueRowChange(dram.CmdPRE, b, 0)
			return
		}
	}
}

// refWriteBacklogHolds is the reference read-after-write forwarding scan
// over the whole write backlog.
func (c *Controller) refWriteBacklogHolds(la dram.Address) bool {
	for w := c.writeQ.head; w != nil; w = w.qnext {
		if w.addr == la && w.write {
			return true
		}
	}
	return false
}

// refWriteCoalesces is the reference write-coalescing scan.
func (c *Controller) refWriteCoalesces(a dram.Address) bool {
	for w := c.writeQ.head; w != nil; w = w.qnext {
		if w.addr == a {
			return true
		}
	}
	return false
}
