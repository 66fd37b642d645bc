// Package cluster simulates a fleet of serverless nodes behind a resilient
// front-end load balancer. Each node is a full serverless.Server (cores,
// private hierarchies, shared LLC + DRAM, optional Jukebox) hosting one
// instance of every deployed function; the front end routes each request to
// a node with the same pluggable sched.Placer policies the single-node
// traffic engine uses per-core — placement policy applies at fleet scope.
//
// The fleet is where the paper's single-node story meets failure reality:
// a node crash destroys every resident instance's warm microarchitectural
// state and its Jukebox metadata, so rescheduled functions restart cold
// elsewhere (the cost Jukebox's in-DRAM metadata was supposed to amortize).
// The front end carries production-shaped resilience machinery — per-request
// deadlines, a retry budget with exponential backoff and seeded jitter,
// optional hedged requests after a P99-based delay, health checking with
// ejection/readmission, and a brownout ladder of graceful-degradation tiers
// (full service → shed low-priority → record-only Jukebox → reject) driven
// by fleet queue depth.
//
// Everything is deterministic: arrivals, backoff jitter and fault decisions
// come from independent seeded xorshift streams, fault strikes are keyed
// Bernoulli draws (faults.Plan.AttemptFails) so the struck set nests as
// probabilities rise, and the event loop is single-threaded with a total
// (time, sequence) order. A 1-node cluster with faults and resilience
// features disabled reproduces Server.ServeTraffic exactly.
package cluster

import (
	"math"

	"lukewarm/internal/cfgerr"
	"lukewarm/internal/eventq"
	"lukewarm/internal/faults"
	"lukewarm/internal/mem"
	"lukewarm/internal/predict"
	"lukewarm/internal/program"
	"lukewarm/internal/sched"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
	"lukewarm/internal/workload"
)

// Config describes one fleet simulation.
type Config struct {
	// Nodes is the fleet size. Every workload is deployed on every node.
	Nodes int
	// Node configures each simulated node (all nodes are identical).
	Node serverless.Config
	// Workloads are the functions deployed fleet-wide, one instance per
	// node each, in deployment order.
	Workloads []workload.Workload
	// Traffic shapes the client arrival processes and the node-local
	// dispatch (keep-alive, per-core placement). One arrival flow runs per
	// (node, function) pair, so offered load scales with fleet size. The
	// fleet front end owns overload protection: the node-level valves
	// (MaxQueue, ShedAfterMs) must be off.
	Traffic serverless.TrafficConfig
	// FleetPlacer picks the node that serves each request, seeing one
	// sched.CoreView per healthy node (FreeAtMs = the node's least-loaded
	// core, Last/ForeignSince = fleet-level warmth of the request's
	// function). Nil selects sched.EarliestAvailable. Stateful placers must
	// not be shared between concurrent runs.
	FleetPlacer sched.Placer
	// NodePlacer, when set, builds a fresh per-core placement policy for
	// each node (stateful policies must not be shared across nodes); it
	// overrides Traffic.Placer. When nil, Traffic.Placer is used as-is on
	// every node — fine for the stateless policies, wrong for stateful ones
	// on a multi-node fleet.
	NodePlacer func() sched.Placer

	// DeadlineMs fails any request still unserved this long after its
	// original arrival (checked when a retry comes up for dispatch).
	// 0 disables the deadline.
	DeadlineMs float64
	// RetryMax is how many times a failed attempt may be retried. 0 means
	// a first failure is final.
	RetryMax int
	// RetryBackoffMs is the base exponential-backoff delay: retry i waits
	// RetryBackoffMs·2^i plus up to 50% seeded jitter. Required positive
	// when RetryMax > 0.
	RetryBackoffMs float64
	// HedgeDelayMinMs enables hedged requests: when the chosen node's
	// predicted queueing delay exceeds max(HedgeDelayMinMs, observed P99
	// request latency), the request is also dispatched on the next-best
	// healthy node and the earlier completion wins; the loser is wasted
	// work. 0 disables hedging.
	HedgeDelayMinMs float64
	// EjectAfter ejects a node from rotation after this many consecutive
	// node-attributed failures (flakes, instance crashes). 0 disables
	// health ejection.
	EjectAfter int
	// EjectMs is how long an ejected node stays out before readmission.
	// Required positive when EjectAfter > 0.
	EjectMs float64

	// ShedLowAtMs, RecordOnlyAtMs and RejectAtMs arm the brownout ladder:
	// when the fleet's queue depth — the best healthy node's backlog in
	// milliseconds — reaches a rung's threshold, the fleet degrades to that
	// tier (1: shed low-priority functions, 2: additionally switch Jukebox
	// to record-only, 3: additionally reject everything). A tier is left
	// when the depth falls below half its threshold (hysteresis). 0
	// disables a rung.
	ShedLowAtMs, RecordOnlyAtMs, RejectAtMs float64
	// LowPriority names the functions tier 1 sheds.
	LowPriority []string

	// Faults, when non-nil, drives the fleet fault model; arm NodeCrash,
	// InstanceCrash and/or DispatchFlake on it. Nil runs fault-free.
	Faults *faults.Plan
	// InstanceCrashProb is the per-dispatch probability an armed
	// InstanceCrash kills the instance mid-invocation (work done, response
	// lost, instance cold afterwards).
	InstanceCrashProb float64
	// DispatchFlakeProb is the per-dispatch probability an armed
	// DispatchFlake drops the attempt before it reaches the node.
	DispatchFlakeProb float64
	// NodeCrashMTBFms is each node's mean time between whole-node crashes
	// (exponential, seeded); 0 disables node crashes even when armed.
	NodeCrashMTBFms float64
	// NodeDownMs is how long a crashed node stays dark. Required positive
	// when node crashes are enabled.
	NodeDownMs float64
	// ShipManifests keeps each instance's REAP manifest across node
	// crashes — the record file is shipped to durable storage with the
	// snapshot — so rescheduled instances restore their working set
	// instead of demand-faulting everything. No effect unless Node.Reap
	// is configured.
	ShipManifests bool

	// PrewarmBudget caps predictive pre-warms fleet-wide (0 = unlimited)
	// and PrewarmRefractoryMs is the minimum spacing between granted
	// pre-warms of the same function anywhere in the fleet (0 = none):
	// hedged or retried traffic judged on two nodes must not pre-warm (and
	// charge) the same arrival twice. Both require Traffic.Predict armed;
	// when either is set and Traffic.Predict.Budget is nil, Run installs a
	// shared predict.Budget across every node's simulation.
	PrewarmBudget       int
	PrewarmRefractoryMs float64
}

// Validate reports whether the fleet configuration is runnable. Errors wrap
// cfgerr.ErrBadConfig.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return cfgerr.New("cluster: Nodes must be positive, got %d", c.Nodes)
	case len(c.Workloads) == 0:
		return cfgerr.New("cluster: no workloads deployed")
	case c.Traffic.MaxQueue != 0 || c.Traffic.ShedAfterMs > 0:
		return cfgerr.New("cluster: node-level valves (MaxQueue %d, ShedAfterMs %g) must be off; the fleet front end owns overload protection",
			c.Traffic.MaxQueue, c.Traffic.ShedAfterMs)
	case c.DeadlineMs < 0:
		return cfgerr.New("cluster: negative DeadlineMs %g", c.DeadlineMs)
	case c.RetryMax < 0:
		return cfgerr.New("cluster: negative RetryMax %d", c.RetryMax)
	case c.RetryMax > 0 && c.RetryBackoffMs <= 0:
		return cfgerr.New("cluster: RetryMax %d needs a positive RetryBackoffMs, got %g", c.RetryMax, c.RetryBackoffMs)
	case c.RetryBackoffMs < 0:
		return cfgerr.New("cluster: negative RetryBackoffMs %g", c.RetryBackoffMs)
	case c.HedgeDelayMinMs < 0:
		return cfgerr.New("cluster: negative HedgeDelayMinMs %g", c.HedgeDelayMinMs)
	case c.EjectAfter < 0:
		return cfgerr.New("cluster: negative EjectAfter %d", c.EjectAfter)
	case c.EjectAfter > 0 && c.EjectMs <= 0:
		return cfgerr.New("cluster: EjectAfter %d needs a positive EjectMs, got %g", c.EjectAfter, c.EjectMs)
	case c.ShedLowAtMs < 0 || c.RecordOnlyAtMs < 0 || c.RejectAtMs < 0:
		return cfgerr.New("cluster: negative brownout threshold (%g/%g/%g)", c.ShedLowAtMs, c.RecordOnlyAtMs, c.RejectAtMs)
	case c.RecordOnlyAtMs > 0 && c.ShedLowAtMs > c.RecordOnlyAtMs:
		return cfgerr.New("cluster: ShedLowAtMs %g above RecordOnlyAtMs %g", c.ShedLowAtMs, c.RecordOnlyAtMs)
	case c.RejectAtMs > 0 && (c.ShedLowAtMs > c.RejectAtMs || c.RecordOnlyAtMs > c.RejectAtMs):
		return cfgerr.New("cluster: brownout ladder not monotone (%g/%g/%g)", c.ShedLowAtMs, c.RecordOnlyAtMs, c.RejectAtMs)
	case c.InstanceCrashProb < 0 || c.InstanceCrashProb > 1:
		return cfgerr.New("cluster: InstanceCrashProb %g outside [0, 1]", c.InstanceCrashProb)
	case c.DispatchFlakeProb < 0 || c.DispatchFlakeProb > 1:
		return cfgerr.New("cluster: DispatchFlakeProb %g outside [0, 1]", c.DispatchFlakeProb)
	case c.NodeCrashMTBFms < 0:
		return cfgerr.New("cluster: negative NodeCrashMTBFms %g", c.NodeCrashMTBFms)
	case c.NodeCrashMTBFms > 0 && c.NodeDownMs <= 0:
		return cfgerr.New("cluster: NodeCrashMTBFms %g needs a positive NodeDownMs, got %g", c.NodeCrashMTBFms, c.NodeDownMs)
	case c.Faults == nil && (c.InstanceCrashProb > 0 || c.DispatchFlakeProb > 0 || c.NodeCrashMTBFms > 0):
		return cfgerr.New("cluster: fault probabilities set but no fault plan armed")
	case c.PrewarmBudget < 0:
		return cfgerr.New("cluster: negative PrewarmBudget %d", c.PrewarmBudget)
	case c.PrewarmRefractoryMs < 0:
		return cfgerr.New("cluster: negative PrewarmRefractoryMs %g", c.PrewarmRefractoryMs)
	case (c.PrewarmBudget > 0 || c.PrewarmRefractoryMs > 0) && c.Traffic.Predict == nil:
		return cfgerr.New("cluster: pre-warm budget set (%d, %g ms) but Traffic.Predict is not armed",
			c.PrewarmBudget, c.PrewarmRefractoryMs)
	}
	if err := c.Traffic.Validate(); err != nil {
		return err
	}
	return nil
}

// fleetPlacer resolves the node-placement policy.
func (c Config) fleetPlacer() sched.Placer {
	if c.FleetPlacer != nil {
		return c.FleetPlacer
	}
	return sched.EarliestAvailable()
}

// Event kinds of the fleet loop.
const (
	evArrival = iota // a request attempt comes up for dispatch
	evNodeCrash
	evReadmit // an ejected node rejoins rotation
)

// event is one entry of the fleet event heap.
type event struct {
	at   mem.Cycle
	kind int
	// Arrival fields.
	flow    int
	attempt int
	origAt  mem.Cycle // first arrival time, for deadline + latency
	reqKey  uint64    // keys the request's fault draws
	// Node-event field.
	node int
}

// node is one failure domain: a full serverless server plus its health and
// availability state.
type node struct {
	srv   *serverless.Server
	sim   *serverless.TrafficSim
	insts []*serverless.Instance // by workload index
	// downUntil/ejectedUntil gate the node out of rotation; a node is
	// dispatchable at t only when t is at or past both.
	downUntil    mem.Cycle
	ejectedUntil mem.Cycle
	consecFails  int
	work         int // dispatches that ran here (fleet warmth meter)
}

func (n *node) healthy(t mem.Cycle) bool {
	return t >= n.downUntil && t >= n.ejectedUntil
}

// flow is one client arrival stream: a (node, function) pair's request
// sequence. The origin node only phases the stream; requests route anywhere.
type flow struct {
	wIdx      int
	fn        string
	remaining int
}

// affinity is the fleet-level warmth of one function: where it last ran and
// how much foreign work that node has absorbed since.
type affinity struct {
	lastNode int
	workMark int
}

// run is the in-flight state of one fleet simulation.
type run struct {
	cfg         Config
	nodes       []*node
	flows       []flow
	aff         []affinity // by workload index
	lowPri      map[string]bool
	cyclesPerMs float64
	q           eventq.Queue[event]
	live        int // requests not yet resolved (incl. not yet injected)

	// Per-attempt placement scratch, reused across events so the dispatch
	// front end stays allocation-free; every placer only reads the views.
	healthyScratch []int
	viewScratch    []sched.CoreView

	arrivalRNG *program.RNG
	jitterRNG  *program.RNG
	shape      sched.Shape
	placer     sched.Placer

	tier        int
	th          [4]float64 // brownout thresholds by tier (0 unused)
	replayOn    bool       // Jukebox replay currently enabled fleet-wide
	lastEventAt mem.Cycle
	hedgeP99Ms  float64 // cached P99 latency in ms for the hedge delay
	res         Result
}

// Run executes the fleet simulation to completion: every flow's requests
// are injected, routed, retried and resolved, and the aggregate result
// returned. It returns an error (wrapping cfgerr.ErrBadConfig) for an
// unrunnable configuration.
func Run(cfg Config) (Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return Result{}, err
	}
	for r.live > 0 {
		if err := r.stepOne(); err != nil {
			return Result{}, err
		}
	}
	return r.finish(), nil
}

// newRun validates cfg, builds the fleet, and injects every arrival stream,
// leaving the run ready for stepOne to drain.
func newRun(cfg Config) (*run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &run{
		cfg:        cfg,
		lowPri:     map[string]bool{},
		arrivalRNG: program.NewRNG(program.Mix(0x7AF1C, cfg.Traffic.Seed)),
		jitterRNG:  program.NewRNG(program.Mix(0xC1F57, cfg.Traffic.Seed)),
		shape:      cfg.Traffic.Shape(),
		placer:     cfg.fleetPlacer(),
		replayOn:   cfg.Node.Jukebox != nil && cfg.Node.Jukebox.ReplayEnabled,
		th:         [4]float64{0, cfg.ShedLowAtMs, cfg.RecordOnlyAtMs, cfg.RejectAtMs},
	}
	for _, fn := range cfg.LowPriority {
		r.lowPri[fn] = true
	}
	// Arm the shared fleet pre-warm budget: every node's sim judges against
	// the same allowance, so a function hedged across two nodes pre-warms
	// on at most one of them. The caller's Config is copied, not mutated.
	if cfg.Traffic.Predict != nil && cfg.Traffic.Predict.Budget == nil &&
		(cfg.PrewarmBudget > 0 || cfg.PrewarmRefractoryMs > 0) {
		pc := *cfg.Traffic.Predict
		pc.Budget = predict.NewBudget(cfg.PrewarmBudget, cfg.PrewarmRefractoryMs)
		cfg.Traffic.Predict = &pc
		r.cfg.Traffic.Predict = &pc
	}
	// Build the fleet: identical nodes, every workload on every node.
	for n := 0; n < cfg.Nodes; n++ {
		srv, err := serverless.NewErr(cfg.Node)
		if err != nil {
			return nil, err
		}
		nd := &node{srv: srv}
		for _, w := range cfg.Workloads {
			nd.insts = append(nd.insts, srv.Deploy(w))
		}
		tcfg := cfg.Traffic
		if cfg.NodePlacer != nil {
			tcfg.Placer = cfg.NodePlacer()
		}
		if nd.sim, err = srv.NewTrafficSim(tcfg); err != nil {
			return nil, err
		}
		r.nodes = append(r.nodes, nd)
	}
	r.cyclesPerMs = r.nodes[0].sim.CyclesPerMs()
	r.aff = make([]affinity, len(cfg.Workloads))
	for i := range r.aff {
		r.aff[i] = affinity{lastNode: -1}
	}
	// Inject the flows: one arrival stream per (node, function) pair, in
	// node-major order, each phase-shifted exactly like ServeTraffic's
	// per-instance streams.
	for n := 0; n < cfg.Nodes; n++ {
		for w := range cfg.Workloads {
			fIdx := len(r.flows)
			r.flows = append(r.flows, flow{wIdx: w, fn: cfg.Workloads[w].Name, remaining: cfg.Traffic.InvocationsPerInstance})
			first := r.nodes[n].srv.Core.Now() +
				mem.Cycle(r.arrivalRNG.Float64()*cfg.Traffic.MeanIATms*r.cyclesPerMs)
			r.push(event{at: first, kind: evArrival, flow: fIdx, origAt: first,
				reqKey: reqKey(fIdx, 0)})
		}
	}
	r.live = len(r.flows) * cfg.Traffic.InvocationsPerInstance
	r.lastEventAt = r.nodes[0].srv.Core.Now()
	// Seed each node's crash schedule (plan-stream draws in node order).
	if cfg.Faults != nil && cfg.Faults.Armed(faults.NodeCrash) && cfg.NodeCrashMTBFms > 0 {
		for n := range r.nodes {
			if gap := cfg.Faults.NodeCrashGapMs(cfg.NodeCrashMTBFms); gap > 0 {
				r.push(event{at: r.lastEventAt + mem.Cycle(gap*r.cyclesPerMs), kind: evNodeCrash, node: n})
			}
		}
	}

	return r, nil
}

// stepOne pops and serves one fleet event — the per-dispatch front-end step
// the steady-state allocation pin measures.
func (r *run) stepOne() error {
	if r.q.Len() == 0 {
		return cfgerr.New("cluster: event heap drained with %d requests unresolved", r.live)
	}
	_, e := r.q.Pop()
	r.accountTier(e.at)
	switch e.kind {
	case evNodeCrash:
		r.crashNode(e)
	case evReadmit:
		r.nodes[e.node].consecFails = 0
		r.res.Readmissions++
	case evArrival:
		r.serveAttempt(e)
	}
	return nil
}

// reqKey identifies one request for keyed fault draws.
func reqKey(flowIdx, reqIdx int) uint64 {
	return program.Mix(uint64(flowIdx)<<32|uint64(uint32(reqIdx)), 0x4EC0)
}

// push enqueues an event at its time, after every event already queued for
// the same time.
//lukewarm:hotpath noalloc every fleet event — arrivals, retries, crashes, readmissions — is enqueued here
func (r *run) push(e event) { r.q.Push(e.at, e) }

// accountTier charges the time since the last event to the current tier.
func (r *run) accountTier(at mem.Cycle) {
	if at > r.lastEventAt {
		r.res.TimeInTierMs[r.tier] += float64(at-r.lastEventAt) / r.cyclesPerMs
		r.lastEventAt = at
	}
}

// crashNode takes a whole node down: every resident instance loses its warm
// state and Jukebox metadata, the node leaves rotation for NodeDownMs, and
// the next crash is scheduled after recovery. With ShipManifests, REAP
// record files survive the crash and the restarted instances restore from
// them instead of going fully cold.
func (r *run) crashNode(e event) {
	nd := r.nodes[e.node]
	nd.downUntil = e.at + mem.Cycle(r.cfg.NodeDownMs*r.cyclesPerMs)
	for _, inst := range nd.insts {
		if r.cfg.ShipManifests && inst.Reap != nil {
			nd.sim.MarkCrashedShipped(inst)
			if inst.Reap.ManifestView().Pages() > 0 {
				r.res.ManifestRestores++
			}
			continue
		}
		nd.sim.MarkCrashed(inst)
	}
	nd.srv.FlushMicroarch()
	r.res.NodeCrashes++
	r.cfg.Faults.RecordInjection(faults.NodeCrash)
	if gap := r.cfg.Faults.NodeCrashGapMs(r.cfg.NodeCrashMTBFms); gap > 0 {
		r.push(event{at: nd.downUntil + mem.Cycle(gap*r.cyclesPerMs), kind: evNodeCrash, node: e.node})
	}
}

// fleetLagMs is the brownout ladder's queue-depth signal: the backlog, in
// milliseconds, of the best healthy node (how long a request arriving now
// would wait for a core anywhere). No healthy node reads as infinite depth.
func (r *run) fleetLagMs(t mem.Cycle) float64 {
	lag := math.Inf(1)
	for _, nd := range r.nodes {
		if !nd.healthy(t) {
			continue
		}
		free := nd.sim.EarliestFreeAt()
		l := 0.0
		if free > t {
			l = float64(free-t) / r.cyclesPerMs
		}
		if l < lag {
			lag = l
		}
	}
	return lag
}

// updateTier walks the brownout ladder: rise to the highest armed rung whose
// threshold the queue depth reaches, fall (with 50% hysteresis) once it
// drains. Crossing the record-only rung toggles Jukebox replay fleet-wide.
func (r *run) updateTier(lag float64) {
	up := 0
	for i := 1; i <= 3; i++ {
		if r.th[i] > 0 && lag >= r.th[i] {
			up = i
		}
	}
	t := r.tier
	if up >= t {
		t = up
	} else {
		for t > up && !(r.th[t] > 0 && lag >= r.th[t]/2) {
			t--
		}
	}
	if t == r.tier {
		return
	}
	r.res.TierShifts++
	wasRecordOnly, isRecordOnly := r.tier >= 2, t >= 2
	r.tier = t
	if r.replayOn && wasRecordOnly != isRecordOnly {
		for _, nd := range r.nodes {
			for _, inst := range nd.insts {
				if inst.Jukebox != nil {
					inst.Jukebox.SetReplayEnabled(!isRecordOnly)
				}
			}
		}
	}
}

// serveAttempt processes one request attempt: brownout ladder, deadline,
// node placement, fault draws, dispatch (with optional hedge), and retry or
// resolution.
func (r *run) serveAttempt(e event) {
	f := &r.flows[e.flow]
	first := e.attempt == 0
	if first {
		r.res.Offered++
	}
	r.updateTier(r.fleetLagMs(e.at))
	switch {
	case r.tier >= 3:
		r.res.TierRejected++
		r.res.Shed++
		r.resolve(e, first)
		return
	case r.tier >= 1 && r.lowPri[f.fn]:
		r.res.ShedLowPriority++
		r.res.Shed++
		r.resolve(e, first)
		return
	}
	if r.cfg.DeadlineMs > 0 && e.at > e.origAt+mem.Cycle(r.cfg.DeadlineMs*r.cyclesPerMs) {
		r.res.DeadlineFailed++
		r.res.Failed++
		r.resolve(e, first)
		return
	}
	// Healthy-node views for the fleet placer, built in pooled scratch.
	healthy := r.healthyScratch[:0]
	views := r.viewScratch[:0]
	af := &r.aff[f.wIdx]
	for n, nd := range r.nodes {
		if !nd.healthy(e.at) {
			continue
		}
		v := sched.CoreView{
			FreeAtMs: float64(nd.sim.EarliestFreeAt()) / r.cyclesPerMs,
			Last:     af.lastNode == n,
		}
		if v.Last {
			v.ForeignSince = nd.work - af.workMark
			v.Bound = r.cfg.Node.Jukebox != nil
		}
		healthy = append(healthy, n)
		views = append(views, v)
	}
	r.healthyScratch, r.viewScratch = healthy, views
	if len(healthy) == 0 {
		r.attemptFailed(e, first)
		return
	}
	pick := r.placer.Place(sched.Request{
		Func:       f.fn,
		ArrivalMs:  float64(e.at) / r.cyclesPerMs,
		HasJukebox: r.cfg.Node.Jukebox != nil,
	}, views)
	primary := healthy[pick]
	// Hedge decision, before any dispatch: when the chosen node's backlog
	// predicts a wait past the hedge delay, race a second copy on the
	// next-best healthy node.
	hedge := -1
	if r.cfg.HedgeDelayMinMs > 0 && len(healthy) >= 2 {
		delay := r.cfg.HedgeDelayMinMs
		if r.hedgeP99Ms > delay {
			delay = r.hedgeP99Ms
		}
		wait := views[pick].FreeAtMs - float64(e.at)/r.cyclesPerMs
		if wait > delay {
			best := -1
			for i := range healthy {
				if i != pick && (best < 0 || views[i].FreeAtMs < views[best].FreeAtMs) {
					best = i
				}
			}
			if best >= 0 {
				hedge = healthy[best]
			}
		}
	}
	pOut, pOK := r.dispatchOn(primary, f, e, 0)
	var hOut serverless.DispatchOutcome
	hOK := false
	if hedge >= 0 {
		r.res.Hedges++
		hOut, hOK = r.dispatchOn(hedge, f, e, 1)
	}
	switch {
	case pOK && hOK:
		// Both completed: the earlier finisher wins, the other is wasted.
		if hOut.Done < pOut.Done {
			r.serve(e, f, hedge, hOut)
			r.res.WastedHedges++
			r.res.WastedHedgeCycles += pOut.ServiceCycles
		} else {
			r.serve(e, f, primary, pOut)
			r.res.WastedHedges++
			r.res.WastedHedgeCycles += hOut.ServiceCycles
		}
	case pOK:
		r.serve(e, f, primary, pOut)
	case hOK:
		r.res.HedgeRescues++
		r.serve(e, f, hedge, hOut)
	default:
		r.attemptFailed(e, first)
	}
}

// dispatchOn runs one attempt copy on a node, applying the transient-flake
// and instance-crash fault draws. Reports the outcome and whether the copy
// produced a response.
func (r *run) dispatchOn(n int, f *flow, e event, hedgeBit uint64) (serverless.DispatchOutcome, bool) {
	nd := r.nodes[n]
	key := program.Mix(e.reqKey, uint64(e.attempt)<<1|hedgeBit)
	if r.cfg.Faults != nil &&
		r.cfg.Faults.AttemptFails(faults.DispatchFlake, program.Mix(key, 0xF1A4E), r.cfg.DispatchFlakeProb) {
		r.res.DispatchFlakes++
		r.nodeFailure(n, e.at)
		return serverless.DispatchOutcome{}, false
	}
	doomed := r.cfg.Faults != nil &&
		r.cfg.Faults.AttemptFails(faults.InstanceCrash, program.Mix(key, 0x1C4A5), r.cfg.InstanceCrashProb)
	if !nd.healthy(e.at) {
		// Tripwire, not a code path: placement only offers healthy nodes.
		r.res.ServedWhileDown++
	}
	out := nd.sim.Dispatch(nd.insts[f.wIdx], e.at, doomed, nil)
	nd.work++
	if doomed {
		r.res.InstanceCrashes++
		r.nodeFailure(n, e.at)
		return out, false
	}
	nd.consecFails = 0
	return out, true
}

// nodeFailure records a node-attributed failure for health checking and
// ejects the node once it fails EjectAfter attempts in a row.
func (r *run) nodeFailure(n int, at mem.Cycle) {
	nd := r.nodes[n]
	nd.consecFails++
	if r.cfg.EjectAfter > 0 && nd.consecFails >= r.cfg.EjectAfter && at >= nd.ejectedUntil {
		nd.ejectedUntil = at + mem.Cycle(r.cfg.EjectMs*r.cyclesPerMs)
		r.res.Ejections++
		r.push(event{at: nd.ejectedUntil, kind: evReadmit, node: n})
	}
}

// serve resolves a request as served by node n with outcome out.
func (r *run) serve(e event, f *flow, n int, out serverless.DispatchOutcome) {
	r.res.Served++
	lat := float64(out.Done - e.origAt)
	r.res.LatencyCycles.Add(lat)
	r.res.latencies = append(r.res.latencies, lat)
	switch out.Class {
	case serverless.ClassCold:
		r.res.ColdServed++
		r.res.ColdCPI.Add(out.CPI)
	case serverless.ClassWarm:
		r.res.WarmServed++
		r.res.WarmCPI.Add(out.CPI)
	default:
		r.res.LukewarmServed++
		r.res.LukewarmCPI.Add(out.CPI)
	}
	af := &r.aff[f.wIdx]
	af.lastNode = n
	af.workMark = r.nodes[n].work
	// Refresh the hedge-delay P99 every 32 completions.
	if r.cfg.HedgeDelayMinMs > 0 && r.res.Served%32 == 0 {
		r.hedgeP99Ms = stats.Percentile(r.res.latencies, 99) / r.cyclesPerMs
	}
	r.resolve(e, e.attempt == 0)
}

// attemptFailed resolves one failed attempt: schedule a backoff retry while
// budget remains, otherwise the request fails for good.
func (r *run) attemptFailed(e event, first bool) {
	r.res.FailedAttempts++
	if e.attempt < r.cfg.RetryMax {
		r.res.Retries++
		backoff := r.cfg.RetryBackoffMs * float64(uint64(1)<<uint(e.attempt))
		backoff += r.jitterRNG.Float64() * backoff / 2
		at := e.at + mem.Cycle(backoff*r.cyclesPerMs)
		if at <= e.at {
			at = e.at + 1
		}
		r.push(event{at: at, kind: evArrival, flow: e.flow, attempt: e.attempt + 1,
			origAt: e.origAt, reqKey: e.reqKey})
		if first {
			r.nextArrival(e)
		}
		return
	}
	r.res.RetriesExhausted++
	r.res.Failed++
	r.resolve(e, first)
}

// resolve finishes one request (served, shed or failed) and, for a
// first-attempt event, draws the flow's next client arrival — the single
// arrival-stream RNG draw per injected request, in event order, exactly
// where ServeTraffic draws it.
func (r *run) resolve(e event, first bool) {
	r.live--
	if first {
		r.nextArrival(e)
	}
}

// nextArrival pushes the flow's next request, if any remain.
func (r *run) nextArrival(e event) {
	f := &r.flows[e.flow]
	f.remaining--
	if f.remaining <= 0 {
		return
	}
	gap := mem.Cycle(r.shape.GapMs(r.arrivalRNG, float64(e.at)/r.cyclesPerMs) * r.cyclesPerMs)
	if gap == 0 {
		gap = 1
	}
	at := e.at + gap
	r.push(event{at: at, kind: evArrival, flow: e.flow, origAt: at,
		reqKey: reqKey(e.flow, r.cfg.Traffic.InvocationsPerInstance-f.remaining)})
}

// finish seals every node sim and assembles the fleet result.
func (r *run) finish() Result {
	r.res.Nodes = r.cfg.Nodes
	for _, nd := range r.nodes {
		pr := nd.sim.Finish()
		r.res.PerNode = append(r.res.PerNode, pr)
		if pr.SimulatedMs > r.res.SimulatedMs {
			r.res.SimulatedMs = pr.SimulatedMs
		}
	}
	if r.cfg.Faults != nil {
		r.res.Injections = r.cfg.Faults.TotalInjections()
	}
	return r.res
}
