package bus

import (
	"net/netip"
	"time"

	"decoydb/internal/core"
)

// admitAdaptive applies the Adaptive policy to one event from src at
// event time at. The caller holds sh.mu. It returns false when the
// event must be shed: the shard is past its high-water mark (and has not
// yet drained back to the low-water mark) and the event's source has
// used up its budget for the current window. Admitted events still obey
// Block semantics upstream.
//
// The budget window advances on event time (core.Event.Time), not wall
// time: the simulator runs a 20-day capture in seconds of wall clock,
// and a live farm's events carry wall time anyway, so event time is the
// one clock that is correct in both worlds.
func (sh *shard) admitAdaptive(o *Options, src netip.Addr, at time.Time) bool {
	if !sh.shedding {
		if sh.n < o.HighWater {
			return true
		}
		sh.shedding = true
	} else if sh.n <= o.LowWater {
		sh.shedding = false
		return true
	}
	if sh.src == nil {
		sh.src = core.NewLRU[netip.Addr, sourceState](o.MaxSources)
	}
	s := sh.src.Get(src)
	if s == nil {
		var evicted *sourceState
		s, evicted = sh.src.Add(src, sourceState{windowStart: at})
		if evicted != nil {
			sh.shedEvicted += evicted.shed
		}
	} else if at.Sub(s.windowStart) >= o.SourceWindow {
		s.windowStart = at
		s.admitted = 0
	}
	if s.admitted < o.SourceBudget {
		s.admitted++
		return true
	}
	s.shed++
	return false
}

// sourceState is one source's entry in a shard's adaptive-shedding
// table: its first-N-per-window budget and its shed count.
type sourceState struct {
	windowStart time.Time // start of the source's current budget window
	admitted    int       // events admitted in the current window
	shed        uint64    // events shed from this source so far
}
