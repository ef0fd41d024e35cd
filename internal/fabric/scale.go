package fabric

// ScalePolicy is the §3.2.2 pool-sizing policy as watermarks on queue depth
// per live member: a pool grows after depth has stood above HiWater×live for
// HiSustain consecutive ticks and shrinks after it has stood below
// LoWater×live for LoSustain. The live deployment's hot-node policy is one
// parameter set of it (newDeployment); the DES scaler's watermarks another.
type ScalePolicy struct {
	// MaxInstances caps the pool, draining members included.
	MaxInstances int
	HiWater      float64
	HiSustain    int
	LoWater      float64
	LoSustain    int
}

// PoolView is what a driver observes of its pool at one tick (Pool.View).
type PoolView struct {
	Members int // every member, draining ones included: the cap counts these
	Live    int // members still accepting work: the watermark denominator
	Depth   int
	// Projected is the forecast depth one cold start ahead; 0 means no
	// forecast, and no pre-warm.
	Projected float64
	Upcoming  bool // a member is queued or loading
	// Releasable says the pool has a victim it may let go of now: it is
	// above its floor and no demand is parked.
	Releasable bool
}

// ScalerState is one pool's hysteresis between ticks.
type ScalerState struct {
	HiStreak, LoStreak int
	// LastLive is the live count at the previous tick; a change through any
	// path resets both streaks, since a streak holds at one denominator.
	LastLive int
	// Refused latches one refusal per at-cap episode; the episode ends only
	// after the hi condition has been absent for HiSustain ticks
	// (RefusedBreak counts them), so pool churn at the cap or a one-tick
	// flap of the watermark does not count the same episode twice.
	Refused      bool
	RefusedBreak int
}

// ScaleAction is what Decide asks the driver to do.
type ScaleAction uint8

const (
	Hold    ScaleAction = iota
	Up                  // start one member
	Refused             // Up was due but the pool is at its cap (once per episode)
	PreWarm             // start one member ahead of a forecast crossing
	Down                // release one member
)

// Decide is one policy evaluation: both the live control loop
// (Deployment.controlStep) and the DES scaler (desmodel's scaleTick) observe
// their pool, call it, and apply the action — as both routers call
// federation.Select.
//
//first:hotpath pinned by TestDecideZeroAlloc (scale_test.go)
func Decide(p *ScalePolicy, v PoolView, s *ScalerState) ScaleAction {
	if v.Live != s.LastLive {
		s.HiStreak, s.LoStreak, s.LastLive = 0, 0, v.Live
	}
	if v.Live == 0 {
		// Nothing running and nothing on the way: demand-driven starts own
		// this regime, and the latch clears with the pool.
		*s = ScalerState{}
		return Hold
	}
	live, depth := float64(v.Live), float64(v.Depth)
	if depth > p.HiWater*live {
		s.LoStreak, s.RefusedBreak = 0, 0
		if s.HiStreak++; s.HiStreak < p.HiSustain {
			return Hold
		}
		s.HiStreak = 0
		if v.Members < p.MaxInstances {
			// Refused stays latched: a refill after a drain dips a capped
			// pool is the same standing episode.
			return Up
		}
		if s.Refused {
			return Hold
		}
		s.Refused = true
		return Refused
	}
	s.HiStreak = 0
	if s.Refused {
		if s.RefusedBreak++; s.RefusedBreak >= p.HiSustain {
			s.Refused, s.RefusedBreak = false, 0
		}
	}
	if v.Projected > p.HiWater*live && !v.Upcoming && v.Members < p.MaxInstances {
		// No stacking behind a cold start in flight: the forecast cannot
		// know how much of the backlog that member will absorb.
		s.LoStreak = 0
		return PreWarm
	}
	if depth >= p.LoWater*live {
		s.LoStreak = 0
		return Hold
	}
	if s.LoStreak++; s.LoStreak < p.LoSustain {
		return Hold
	}
	if !v.Releasable {
		s.LoStreak = p.LoSustain // stay armed: retry next tick
		return Hold
	}
	s.LoStreak = 0
	return Down
}
