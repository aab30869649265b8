package sim

import "repro/internal/trace"

// runCycle is the reference loop: one CPU cycle per iteration, the
// differential-testing oracle for the event engine (runEvent).
func (s *system) runCycle() {
	target := s.cfg.WarmupInsts
	for s.cpuCycle = 0; s.cpuCycle < s.maxCycles; s.cpuCycle++ {
		s.llc.Tick()
		for _, c := range s.cores {
			c.Tick()
		}
		s.memAcc += s.memF
		if s.memAcc >= s.cpuF {
			s.memAcc -= s.cpuF
			s.ctrl.Tick()
		}
		if !s.warmedUp && s.allRetired(target) {
			s.beginMeasure()
		}
		if s.warmedUp && s.allRetired(s.cfg.MeasureInsts) {
			break
		}
	}
}

// runReference is Run driven by the reference loop instead of the event
// engine.
func runReference(cfg Config, mix trace.Mix) (*Result, error) {
	s, err := newSystem(cfg, mix)
	if err != nil {
		return nil, err
	}
	s.runCycle()
	return s.result(), nil
}
