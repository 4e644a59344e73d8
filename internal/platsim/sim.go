package platsim

import (
	"fmt"
	"math"
	"sort"

	"argo/internal/platform"
	"argo/internal/trace"
)

// SimConfig is the process layout to simulate: ARGO's (n, s, t) triple,
// plus simulation controls.
type SimConfig struct {
	Procs       int
	SampleCores int
	TrainCores  int
	// MaxIters bounds the number of simulated iterations; the epoch time
	// is extrapolated from the steady-state per-iteration rate. 0 means
	// simulate the whole epoch.
	MaxIters int
	// Trace, when non-nil, receives every phase interval (Fig. 2).
	Trace *trace.Timeline
}

// Metrics summarises one simulated epoch.
type Metrics struct {
	EpochSeconds    float64
	AvgBandwidthGBs float64 // achieved DRAM bandwidth over the epoch
	SampledEdges    float64 // total sampled edges per epoch (Fig. 6)
	SocketsUsed     int
	Iterations      int
}

// actor states.
const (
	stRunning = iota
	stBlocked // sampler with a full queue
	stWaiting // trainer waiting for a sampled batch
	stBarrier // trainer waiting at the sync barrier
	stDone
)

// trainerPhases is the trainer's phase chain; sampling runs in each
// process's own sampler actor, overlapped with it.
var trainerPhases = []string{"gather", "aggregate", "dense", "backward"}

type simActor struct {
	proc    int
	sampler bool
	state   int
	phase   int // trainer: index into trainerPhases

	coreRem  float64 // seconds of (pool-parallel) core work remaining
	bytesRem float64 // bytes of DRAM traffic remaining
	memCap   float64 // bytes/s this actor's flow can sustain
	rate     float64 // current assigned memory rate

	itersDone  int // trainer: completed iterations; sampler: batches produced
	phaseStart float64
	phaseName  string
}

type simulator struct {
	sc    Scenario
	cfg   SimConfig
	work  IterWork
	sync  float64
	simIt int // iterations to simulate

	clock    float64
	actors   []*simActor
	queues   []int // sampled-batch queue depth per process
	barrier  int
	syncing  bool
	syncRem  float64
	syncFrom float64

	globalBW   float64 // bytes/s
	totalBytes float64
	iterTimes  []float64 // clock when iteration k completed (all procs)

	// per-phase precomputed durations
	sampleCoreT float64
	trainCoreT  []float64
	phaseBytes  []float64
	sampleCap   float64
	trainCap    float64
}

const queueCap = 2

// Simulate runs one epoch of the scenario under the given layout.
func Simulate(sc Scenario, cfg SimConfig) (Metrics, error) {
	if cfg.Procs < 1 || cfg.SampleCores < 1 || cfg.TrainCores < 1 {
		return Metrics{}, fmt.Errorf("platsim: invalid layout n=%d s=%d t=%d", cfg.Procs, cfg.SampleCores, cfg.TrainCores)
	}
	need := cfg.Procs * (cfg.SampleCores + cfg.TrainCores)
	if need > sc.Platform.TotalCores() {
		return Metrics{}, fmt.Errorf("platsim: layout needs %d cores, machine has %d", need, sc.Platform.TotalCores())
	}

	s := &simulator{sc: sc, cfg: cfg}
	s.work = sc.PerProcessWork(cfg.Procs)
	s.sync = sc.SyncSeconds(cfg.Procs)

	m := sc.IterationsPerEpoch()
	s.simIt = m
	if cfg.MaxIters > 0 && cfg.MaxIters < m {
		s.simIt = cfg.MaxIters
	}

	// Placement: socket-contiguous binding per process, as the
	// Core-Binder does on real machines.
	sockets := socketsSpanned(sc.Platform, cfg.Procs, cfg.SampleCores+cfg.TrainCores)
	s.globalBW = sc.Platform.EffectiveBW(sockets) * 1e9

	lib := sc.Library
	perCore := sc.Platform.PerCoreBWGBs * 1e9
	// A single process's achievable bandwidth is capped at κ·peak
	// regardless of core count (first-touch NUMA placement, bounded
	// memory-level parallelism) — the mechanism behind the Fig. 1
	// baseline plateau.
	procCap := lib.ProcessBWFrac * sc.Platform.PeakBWGBs * 1e9
	s.sampleCap = math.Min(float64(cfg.SampleCores)*perCore, procCap)
	s.trainCap = math.Min(float64(cfg.TrainCores)*perCore, procCap)

	s.sampleCoreT = amdahl(s.work.SampleCore, cfg.SampleCores, lib.SamplerSerial[sc.Sampler])
	s.trainCoreT = []float64{
		0, // gather is pure memory traffic
		satTime(s.work.AggCore, cfg.TrainCores, cfg.Procs, lib.TrainSatCores, lib.TrainMachCores),
		satTime(s.work.DenseCore, cfg.TrainCores, cfg.Procs, lib.DenseSatCores, lib.DenseMachCores),
		satTime(s.work.BackCore, cfg.TrainCores, cfg.Procs, lib.TrainSatCores, lib.TrainMachCores) + lib.FixedIterCost,
	}
	s.phaseBytes = []float64{s.work.GatherBytes, s.work.AggBytes, s.work.DenseBytes, s.work.BackBytes}

	s.queues = make([]int, cfg.Procs)
	for p := 0; p < cfg.Procs; p++ {
		sa := &simActor{proc: p, sampler: true, memCap: s.sampleCap}
		s.startSample(sa)
		s.actors = append(s.actors, sa, &simActor{proc: p, state: stWaiting, memCap: s.trainCap})
	}

	if err := s.run(); err != nil {
		return Metrics{}, err
	}

	// Steady-state extrapolation to the full epoch.
	tEnd := s.iterTimes[len(s.iterTimes)-1]
	epoch := tEnd
	if s.simIt < m {
		half := s.simIt / 2
		perIter := (tEnd - s.iterTimes[half-1]) / float64(s.simIt-half)
		epoch = tEnd + perIter*float64(m-s.simIt)
	}
	simBytes := s.totalBytes
	return Metrics{
		EpochSeconds:    epoch,
		AvgBandwidthGBs: simBytes / tEnd / 1e9,
		SampledEdges:    s.work.SampledEdges * float64(cfg.Procs) * float64(m),
		SocketsUsed:     sockets,
		Iterations:      m,
	}, nil
}

// socketsSpanned counts the sockets that procs processes of k cores each
// cover when bound socket-contiguously: a process takes its cores from
// the first socket with k free, or else from the sockets in order, as
// many as each has free. Every socket fills from its low end, so the free
// count per socket is the whole placement state. The caller guarantees
// procs·k cores exist.
func socketsSpanned(spec platform.Spec, procs, k int) int {
	free := make([]int, spec.Sockets)
	for i := range free {
		free[i] = spec.CoresPerSocket
	}
	for p := 0; p < procs; p++ {
		s := 0
		for s < len(free) && free[s] < k {
			s++
		}
		if s < len(free) {
			free[s] -= k
			continue
		}
		for need, i := k, 0; need > 0; i++ {
			take := min(need, free[i])
			free[i] -= take
			need -= take
		}
	}
	used := 0
	for _, f := range free {
		if f < spec.CoresPerSocket {
			used++
		}
	}
	return used
}

func (s *simulator) startSample(a *simActor) {
	a.state = stRunning
	a.coreRem = s.sampleCoreT
	a.bytesRem = s.work.SampleBytes
	a.phaseStart = s.clock
	a.phaseName = "sample"
}

func (s *simulator) startTrainerPhase(a *simActor, phase int) {
	a.state = stRunning
	a.phase = phase
	a.coreRem = s.trainCoreT[phase]
	a.bytesRem = s.phaseBytes[phase]
	a.phaseStart = s.clock
	a.phaseName = trainerPhases[phase]
}

// consume hands a sampled batch to a waiting trainer if one is queued.
func (s *simulator) tryConsume(a *simActor) bool {
	if s.queues[a.proc] == 0 {
		return false
	}
	s.queues[a.proc]--
	// Wake the sampler if it was waiting for queue space.
	for _, other := range s.actors {
		if other.sampler && other.proc == a.proc && other.state == stBlocked {
			s.startSample(other)
		}
	}
	s.startTrainerPhase(a, 0)
	return true
}

func (s *simulator) emit(a *simActor, name string, start, end float64) {
	if s.cfg.Trace == nil {
		return
	}
	actor := "trainer"
	if a.sampler {
		actor = "sampler"
	}
	s.cfg.Trace.Add(trace.Event{Proc: a.proc, Actor: actor, Phase: name, Start: start, End: end})
}

const timeEps = 1e-12

func (s *simulator) run() error {
	maxEvents := 200*s.simIt*s.cfg.Procs + 10000
	for events := 0; ; events++ {
		if events > maxEvents {
			return fmt.Errorf("platsim: event budget exhausted (livelock?)")
		}
		// Zero-time transitions first (immediate phase completions,
		// zero-cost sync release).
		if s.drainCompletions() {
			continue
		}
		if s.allTrainersDone() {
			return nil
		}
		// Assign memory rates by water-filling the platform bandwidth.
		s.assignRates()
		// Find the next component completion.
		dt := math.Inf(1)
		for _, a := range s.actors {
			if a.state != stRunning {
				continue
			}
			if a.coreRem > timeEps {
				dt = math.Min(dt, a.coreRem)
			}
			if a.bytesRem > timeEps && a.rate > 0 {
				dt = math.Min(dt, a.bytesRem/a.rate)
			}
		}
		if s.syncing && s.syncRem > timeEps {
			dt = math.Min(dt, s.syncRem)
		}
		if math.IsInf(dt, 1) {
			return fmt.Errorf("platsim: deadlock at t=%.6f", s.clock)
		}
		// Advance.
		s.clock += dt
		for _, a := range s.actors {
			if a.state != stRunning {
				continue
			}
			if a.coreRem > 0 {
				a.coreRem -= dt
			}
			if a.bytesRem > 0 && a.rate > 0 {
				adv := a.rate * dt
				if adv > a.bytesRem {
					adv = a.bytesRem
				}
				a.bytesRem -= adv
				s.totalBytes += adv
			}
		}
		if s.syncing {
			s.syncRem -= dt
		}
	}
}

// drainCompletions processes every actor whose current phase has finished
// and the sync barrier when it is due. Returns true if anything changed.
func (s *simulator) drainCompletions() bool {
	changed := false
	for _, a := range s.actors {
		if a.state != stRunning || a.coreRem > timeEps || a.bytesRem > timeEps {
			continue
		}
		changed = true
		s.emit(a, a.phaseName, a.phaseStart, s.clock)
		if a.sampler {
			s.queues[a.proc]++
			a.itersDone++
			// Wake the trainer if it was starved.
			for _, other := range s.actors {
				if !other.sampler && other.proc == a.proc && other.state == stWaiting {
					s.tryConsume(other)
				}
			}
			switch {
			case a.itersDone >= s.simIt:
				a.state = stDone
			case s.queues[a.proc] >= queueCap:
				a.state = stBlocked
			default:
				s.startSample(a)
			}
			continue
		}
		// Trainer phase chain.
		if a.phase < len(trainerPhases)-1 {
			s.startTrainerPhase(a, a.phase+1)
			continue
		}
		a.state = stBarrier
		s.barrier++
		if s.barrier == s.cfg.Procs && !s.syncing {
			s.syncing = true
			s.syncRem = s.sync
			s.syncFrom = s.clock
		}
	}
	if s.syncing && s.syncRem <= timeEps {
		changed = true
		s.syncing = false
		s.barrier = 0
		for _, a := range s.actors {
			if a.sampler || a.state != stBarrier {
				continue
			}
			if s.sync > 0 {
				s.emit(a, "sync", s.syncFrom, s.clock)
			}
			a.itersDone++
			switch {
			case a.itersDone >= s.simIt:
				a.state = stDone
			default:
				if !s.tryConsume(a) {
					a.state = stWaiting
				}
			}
		}
		s.iterTimes = append(s.iterTimes, s.clock)
	}
	return changed
}

func (s *simulator) allTrainersDone() bool {
	for _, a := range s.actors {
		if !a.sampler && a.state != stDone {
			return false
		}
	}
	return true
}

// assignRates water-fills the platform's effective bandwidth across the
// active memory flows, respecting per-flow caps.
func (s *simulator) assignRates() {
	var active []*simActor
	for _, a := range s.actors {
		a.rate = 0
		if a.state == stRunning && a.bytesRem > timeEps {
			active = append(active, a)
		}
	}
	if len(active) == 0 {
		return
	}
	sort.Slice(active, func(i, j int) bool { return active[i].memCap < active[j].memCap })
	remaining := s.globalBW
	for i, a := range active {
		share := remaining / float64(len(active)-i)
		r := math.Min(a.memCap, share)
		a.rate = r
		remaining -= r
	}
}
