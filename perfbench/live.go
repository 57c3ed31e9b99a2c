package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/camnode"
	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/reid"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tracker"
	"repro/internal/trajstore"
	"repro/internal/transport"
	"repro/internal/vision"
)

// live-handoff: an open loop. Four camnode.RunLive nodes on a
// loopback-TCP corridor, a TCP topology server, and a disk-backed
// trajstore server reached through one BatchWriter per node. One
// generator goroutine renders every camera's frames at virtual 15 FPS
// and releases them on a fixed wall-clock schedule, one tick every
// liveInterval (about 3.9 times faster than real time), stamping each
// frame with its due time.
const (
	liveCameras = 4
	liveSpacing = 120.0
	liveFPS     = 15
	// liveInterval is the wall time between ticks. It is long enough
	// that the generator's wake-up jitter on a shared machine stays well
	// inside one interval, and it divides no round flush period: edges
	// queue a few ms after a tick and wait for their BatchWriter's
	// ticker (50 ms by default), so with an interval of 50/3 ms every
	// edge of a node would wait the same ticker phase and the commit
	// median would move with the phase each run happened to draw. At
	// 16.9 ms the ticks step through the whole 50 ms cycle in 0.1 ms
	// steps.
	liveInterval  = 16900 * time.Microsecond
	liveQueue     = 64 // frames a node may have waiting before the run is invalid
	liveHeartbeat = 500 * time.Millisecond
	// The generator has fallen behind when it stays more than one
	// interval late for longer than liveStall at a stretch, or when more
	// than liveLateShare of its ticks start more than one interval late.
	liveStall     = 250 * time.Millisecond
	liveLateShare = 0.25
	liveWarmup    = 3 // seconds a traced run streams before it measures
	// liveTail is how long before the stream ends vehicles stop
	// departing, so the last ones still cross a camera or two.
	liveTail = 10 * time.Second
)

// liveCommitBuckets resolve the frame-to-commit latency finely: one
// bucket for non-positive samples (which must not happen), then 2%
// steps from 0.2 ms to about 4 s.
func liveCommitBuckets() []float64 {
	return append([]float64{0}, obs.ExpBuckets(0.0002, 1.02, 500)...)
}

// queuedFrame is a released frame waiting for its node.
type queuedFrame struct {
	f   *vision.Frame
	due time.Time
}

// liveSource is one node's camnode.FrameSource: the frames the
// generator released for it, in order.
type liveSource struct {
	ch    chan queuedFrame
	waits []float64 // ms from due time to hand-over, read after RunLive returns
}

func (s *liveSource) Next() (*vision.Frame, error) {
	q, ok := <-s.ch
	if !ok {
		return nil, io.EOF
	}
	s.waits = append(s.waits, ms(time.Since(q.due)))
	return q.f, nil
}

// liveNode is one camera's moving parts.
type liveNode struct {
	id     string
	node   *camnode.Node
	ep     *transport.TCP
	client *trajstore.Client
	writer *trajstore.BatchWriter
	src    *liveSource
	camera *sim.Camera
}

// liveDeployment is one set-up of the whole workload.
type liveDeployment struct {
	dir     string
	reg     *obs.Registry
	store   *trajstore.Store
	trajSrv *trajstore.Server
	topoEP  *transport.TCP
	topoSrv *topology.Server
	nodes   []*liveNode
	cancel  context.CancelFunc
}

// setupLive starts the servers and nodes, fills the world with traffic
// for a stream of the given virtual length, and waits until every node
// holds its MDCS table. tr, when non-nil, wraps the interfaces handed
// to each node.
func setupLive(dir string, seed int64, virtual time.Duration, tr *tracer) (*liveDeployment, error) {
	graph, nodes, err := roadnet.Corridor(liveCameras, liveSpacing, corridorOrigin)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &liveDeployment{dir: dir, reg: obs.NewRegistry(), cancel: cancel}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	if d.store, err = trajstore.Open(filepath.Join(dir, "trajstore")); err != nil {
		return nil, err
	}
	d.store.Instrument(d.reg, clock.Real{})
	if d.trajSrv, err = trajstore.ServeWith(d.store, "127.0.0.1:0", trajstore.ServerOptions{Registry: d.reg}); err != nil {
		return nil, err
	}
	if d.topoEP, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		return nil, err
	}
	d.topoEP.Use(d.reg)
	d.topoSrv, err = topology.NewServer(graph, d.topoEP, clock.Real{}, topology.ServerConfig{
		LivenessTimeout:  4 * liveHeartbeat,
		SnapToNodeMeters: 30,
		Registry:         d.reg,
	})
	if err != nil {
		return nil, err
	}
	if err := d.topoSrv.Start(ctx, liveHeartbeat/2); err != nil {
		return nil, err
	}

	// The traffic world only renders; its simulator is never run.
	world, err := sim.NewWorld(sim.WorldConfig{Sim: des.New(time.Unix(0, 0).UTC()), Graph: graph})
	if err != nil {
		return nil, err
	}
	buckets := liveCommitBuckets()
	for i, nodeID := range nodes {
		id := fmt.Sprintf("cam%d", i)
		pos, err := graph.Node(nodeID)
		if err != nil {
			return nil, err
		}
		// Registered first, these finer buckets are the ones camnode's
		// coralpie_e2e_track_commit_seconds observes into.
		d.reg.Histogram("coralpie_e2e_track_commit_seconds",
			"frame capture to trajectory edge-commit acknowledgement", buckets, "camera", id)
		n := &liveNode{id: id, src: &liveSource{ch: make(chan queuedFrame, liveQueue)}}
		d.nodes = append(d.nodes, n)
		if n.ep, err = transport.ListenTCPConfig("127.0.0.1:0", transport.TCPConfig{}); err != nil {
			return nil, err
		}
		n.ep.Use(d.reg)
		if n.client, err = trajstore.DialContext(ctx, d.trajSrv.Addr(), trajstore.ClientConfig{Registry: d.reg}); err != nil {
			return nil, err
		}
		var bc trajstore.BatchClient = n.client
		if tr != nil {
			bc = tracedBatchClient{c: n.client, tr: tr}
		}
		n.writer = trajstore.NewBatchWriter(bc, trajstore.BatchWriterConfig{})
		det, err := vision.NewSimDetector(vision.DefaultSimDetectorConfig(seed ^ int64(fnv64(id))))
		if err != nil {
			return nil, err
		}
		var (
			detector vision.Detector    = det
			sink     camnode.TrajStore  = n.writer
			ep       transport.Endpoint = n.ep
		)
		if tr != nil {
			detector = tracedDetector{Detector: det, tr: tr}
			sink = tracedTrajSink{w: n.writer, tr: tr}
			ep = tracedEndpoint{Endpoint: n.ep, tr: tr}
		}
		n.node, err = camnode.New(camnode.Config{
			CameraID:           id,
			Position:           pos.Pos,
			TopologyServerAddr: d.topoEP.Addr(),
			Detector:           detector,
			PostProcess:        vision.PostProcessConfig{MinConfidence: vision.DefaultMinConfidence},
			Tracker:            tracker.DefaultConfig(),
			Matcher:            reid.DefaultMatcherConfig(),
			Pool:               reid.DefaultPoolConfig(),
			TrajStore:          sink,
			Clock:              clock.Real{},
			Registry:           d.reg,
			Tracer: obs.NewTracerWith(obs.TracerConfig{
				Clock: clock.Real{}, Capacity: 4096, IDPrefix: id + "-", SampleEvery: 1,
			}),
		}, ep)
		if err != nil {
			return nil, err
		}
		if err := n.node.Topology().StartHeartbeats(ctx, liveHeartbeat); err != nil {
			return nil, err
		}
		if n.camera, err = world.AddCamera(sim.DefaultCameraSpec(id, pos.Pos, 0), func(*vision.Frame) {}); err != nil {
			return nil, err
		}
	}
	for _, spec := range liveTraffic(seed, nodes, virtual) {
		if err := world.AddVehicle(spec); err != nil {
			return nil, err
		}
	}
	if err := d.waitForTopology(10 * time.Second); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// liveVirtual is the virtual time a stream of the given wall seconds
// covers.
func liveVirtual(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second/liveFPS) / float64(liveInterval) * float64(time.Second))
}

// liveTraffic departs seeded vehicles down the whole corridor every
// 1.2 s on average until liveTail before the stream ends: a few hundred
// handoffs per 30 s run, enough to pin the commit latency median.
func liveTraffic(seed int64, nodes []roadnet.NodeID, virtual time.Duration) []sim.VehicleSpec {
	const gap = 1200 * time.Millisecond
	n := int((virtual - liveTail) / gap)
	if n < 1 {
		n = 1
	}
	return corridorTraffic(seed, nodes, n, gap, false)
}

// waitForTopology polls until every node's MDCS table names its
// corridor neighbours.
func (d *liveDeployment) waitForTopology(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		ready := true
		for i, n := range d.nodes {
			top := n.node.Topology()
			if i+1 < len(d.nodes) && !hasCamera(top.Lookup(geo.East), d.nodes[i+1].id) {
				ready = false
			}
			if i > 0 && !hasCamera(top.Lookup(geo.West), d.nodes[i-1].id) {
				ready = false
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("live: MDCS tables not ready after %v", limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func hasCamera(refs []protocol.CameraRef, id string) bool {
	for _, r := range refs {
		if r.ID == id && r.Addr != "" {
			return true
		}
	}
	return false
}

// close stops everything setupLive started, in reverse order, and
// waits for each part to finish.
func (d *liveDeployment) close() {
	for _, n := range d.nodes {
		if n.node != nil {
			_ = n.node.Topology().Close()
		}
		if n.writer != nil {
			_ = n.writer.Close()
		}
		if n.client != nil {
			_ = n.client.Close()
		}
		if n.ep != nil {
			_ = n.ep.Close()
		}
	}
	if d.topoSrv != nil {
		_ = d.topoSrv.Close()
	}
	if d.topoEP != nil {
		_ = d.topoEP.Close()
	}
	if d.trajSrv != nil {
		_ = d.trajSrv.Close()
	}
	if d.store != nil {
		_ = d.store.Close()
	}
	d.cancel()
	_ = os.RemoveAll(d.dir)
}

// genStats is what the generator saw.
type genStats struct {
	released  int64
	dropped   int64 // frames a full node queue refused
	lateMax   time.Duration
	lates     []float64     // ms each tick started after its due time
	cpu       time.Duration // the generator thread's CPU time
	earlyMean float64       // mean queue depth over the first third of ticks
	lateMean  float64       // mean queue depth over the last third
}

// generate releases ticks frames per camera on the wall-clock schedule
// start + k*interval, never blocking on a node: a frame whose queue is
// full is dropped and counted. It closes every source when done.
func generate(d *liveDeployment, start time.Time, interval time.Duration, ticks int, tr *tracer) genStats {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := cpuTime(rusageThread)
	var g genStats
	virtual := time.Second / liveFPS
	var early, late []float64
	for k := 0; k < ticks; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag := time.Since(due)
		g.lates = append(g.lates, ms(lag))
		if lag > g.lateMax {
			g.lateMax = lag
		}
		depth := 0
		for _, n := range d.nodes {
			rs := time.Now()
			f := n.camera.Render(time.Duration(k) * virtual)
			tr.record("sim.render", 0, rs, time.Now())
			f.Time = due
			select {
			case n.src.ch <- queuedFrame{f: f, due: due}:
				g.released++
			default:
				g.dropped++
			}
			depth += len(n.src.ch)
		}
		switch {
		case k < ticks/3:
			early = append(early, float64(depth)/float64(len(d.nodes)))
		case k >= ticks-ticks/3:
			late = append(late, float64(depth)/float64(len(d.nodes)))
		}
	}
	for _, n := range d.nodes {
		close(n.src.ch)
	}
	g.cpu = cpuTime(rusageThread) - cpu0
	g.earlyMean, g.lateMean = mean(early), mean(late)
	return g
}

// behind measures how the generator kept its schedule: the share of
// ticks that started more than one interval late, and the longest
// stretch of consecutive such ticks, as wall time.
func behind(lates []float64, interval time.Duration) (share float64, stretch time.Duration) {
	over, run, longest := 0, 0, 0
	for _, l := range lates {
		if l <= ms(interval) {
			run = 0
			continue
		}
		over++
		run++
		longest = max(longest, run)
	}
	return ratio(float64(over), float64(len(lates))), time.Duration(longest) * interval
}

// checkBehind tests the generator rules on hand-made lateness series: a
// 50 ms pause the generator catches up from is not falling behind; a
// generator slower than its schedule is, and so is one that is late on
// every other tick.
func checkBehind() error {
	const interval = 10 * time.Millisecond
	paused := make([]float64, 1000)
	copy(paused[500:], []float64{50, 40, 30, 20, 10})
	if share, stretch := behind(paused, interval); share != 0.004 || stretch != 40*time.Millisecond {
		return fmt.Errorf("generator: paused series gave share %v stretch %v, want 0.004 and 40ms", share, stretch)
	}
	slow := make([]float64, 1000)
	for i := range slow {
		slow[i] = float64(i) // 1 ms behind per tick
	}
	if _, stretch := behind(slow, interval); stretch <= liveStall {
		return fmt.Errorf("generator: slow series stretch %v is not over %v", stretch, liveStall)
	}
	alternate := make([]float64, 1000)
	for i := 0; i < len(alternate); i += 2 {
		alternate[i] = 15
	}
	if share, _ := behind(alternate, interval); share <= liveLateShare {
		return fmt.Errorf("generator: alternating series share %v is not over %v", share, liveLateShare)
	}
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// livePhase is one streamed run of a deployment.
type livePhase struct {
	gen       genStats
	wall      time.Duration
	interval  time.Duration
	cpu       time.Duration // process CPU during the stream
	frames    float64       // frames the nodes processed
	waits     []float64
	commit    histogram
	score     handoffScore
	counts    map[string]float64
	attempted float64
	failed    float64
	runErrs   []error
}

// stream runs the generator and every node's RunLive until the stream
// ends, then scores the graph.
func (d *liveDeployment) stream(seconds float64, tr *tracer) (*livePhase, error) {
	ticks := int(seconds * float64(time.Second) / float64(liveInterval))
	p := &livePhase{interval: liveInterval}
	errs := make([]error, len(d.nodes))
	var wg sync.WaitGroup
	cpu0 := cpuTime(syscall.RUSAGE_SELF)
	start := time.Now().Add(20 * time.Millisecond)
	for i, n := range d.nodes {
		wg.Add(1)
		go func(i int, n *liveNode) {
			defer wg.Done()
			errs[i] = n.node.RunLive(context.Background(), n.src)
		}(i, n)
	}
	p.gen = generate(d, start, liveInterval, ticks, tr)
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = cpuTime(syscall.RUSAGE_SELF) - cpu0
	for _, err := range errs {
		if err != nil {
			p.runErrs = append(p.runErrs, err)
		}
	}
	for _, n := range d.nodes {
		p.waits = append(p.waits, n.src.waits...)
	}
	p.commit = readHistogram(d.reg, "coralpie_e2e_track_commit_seconds")
	vs, es, err := readGraph(d.store)
	if err != nil {
		return nil, err
	}
	p.score = scoreHandoffs(vs, es)
	p.counts = map[string]float64{}
	for _, name := range append(cameraCounters, liveCounters...) {
		p.counts[name] = counterSum(d.reg, name)
	}
	p.frames = p.counts["coralpie_camnode_frames_total"]
	sends := p.counts["coralpie_camnode_informs_sent_total"] + p.counts["coralpie_camnode_confirms_sent_total"] +
		p.counts["coralpie_camnode_retires_sent_total"] + p.counts["coralpie_camnode_vertices_total"] +
		p.counts["coralpie_camnode_edges_total"]
	sendErrs := p.counts["coralpie_camnode_send_errors_total"]
	p.attempted = float64(p.gen.released+p.gen.dropped) + sends + sendErrs
	p.failed = sendErrs + float64(p.gen.dropped) + float64(p.gen.released) - p.frames + float64(len(p.runErrs))
	return p, nil
}

// liveCounters are the live-only counters the metrics read.
var liveCounters = []string{
	"coralpie_camnode_informs_sent_total",
	"coralpie_camnode_confirms_sent_total",
	"coralpie_camnode_retires_sent_total",
	"coralpie_camnode_edges_total",
	"coralpie_camnode_send_errors_total",
	"coralpie_topology_pushes_total",
	"coralpie_rpc_retries_total",
	"coralpie_transport_retries_total",
}

// check applies the open-loop validity rules and the commit sample
// self-test to a phase.
func (p *livePhase) check(out *outcome) {
	for _, err := range p.runErrs {
		out.problem("RunLive: %v", err)
	}
	if p.gen.dropped > 0 {
		out.problem("invalid run: %d frames found their node's queue full (backlog)", p.gen.dropped)
	}
	// A late wake-up is not falling behind. When the host pauses the
	// machine for a few tens of ms, every thread wakes up late; the
	// generator then releases the overdue frames at once, stamped with
	// their due times, so the pause is charged to commit latency and
	// the offered load is unchanged. It has fallen behind when it does
	// not catch up.
	share, stretch := behind(p.gen.lates, p.interval)
	if stretch > liveStall {
		out.problem("invalid run: generator stayed more than one interval behind its schedule for %v", stretch)
	}
	if share > liveLateShare {
		out.problem("invalid run: %.1f%% of generator ticks started more than one interval late", 100*share)
	}
	if p.gen.lateMean > p.gen.earlyMean+2 {
		out.problem("invalid run: backlog grew from %.1f to %.1f queued frames per node", p.gen.earlyMean, p.gen.lateMean)
	}
	if p.commit.total == 0 {
		out.problem("no edge commits observed")
	}
	if n := p.commit.count[0]; n > 0 {
		out.problem("%d commit samples are not positive", n)
	}
	if n := p.commit.countAbove(p.wall.Seconds()); n > 0 {
		out.problem("%d commit samples exceed the %.1fs run", n, p.wall.Seconds())
	}
}

func runLiveHandoff(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	virtual := liveVirtual(cfg.seconds)
	// Set up three times; the last deployment is the one measured.
	var d *liveDeployment
	for i := 0; i < 3; i++ {
		start := time.Now()
		var err error
		d, err = setupLive(filepath.Join(cfg.scratch, fmt.Sprintf("live-%d", i)), cfg.seed, virtual, nil)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
		if i < 2 {
			d.close()
		}
	}
	if cfg.trace {
		d.close()
		return liveTraced(cfg, out)
	}
	p, err := d.stream(cfg.seconds, nil)
	d.close()
	if err != nil {
		return nil, err
	}
	p.check(out)
	out.attempted, out.failed = int64(p.attempted), int64(p.failed)
	out.e2e["handoff_precision"] = p.score.precision()
	out.e2e["handoff_recall"] = p.score.recall()
	out.e2e["p50_ms"] = 1e3 * p.commit.quantile(0.5)
	tail := tailQuantile(int(p.commit.total), 0.9)
	out.e2e["tail_ms"] = 1e3 * p.commit.quantile(tail)
	out.note("commit_p50_ms %.3f  commit_p%.0f_ms %.3f  (%d commits, frame due time to edge ack)",
		out.e2e["p50_ms"], 100*tail, out.e2e["tail_ms"], p.commit.total)
	out.note("handoffs: %d edges, %d true, %d of %d true handoffs found",
		p.score.edges, p.score.truePos, p.score.found, p.score.transitions)
	share, stretch := behind(p.gen.lates, p.interval)
	out.note("generator: %d frames released, late p99 %.2f ms max %.2f ms, %.2f%% of ticks over one interval late, longest %v; source wait p99 %.2f ms, backlog %.2f -> %.2f",
		p.gen.released, quantile(p.gen.lates, 0.99), ms(p.gen.lateMax), 100*share, stretch, quantile(p.waits, 0.99), p.gen.earlyMean, p.gen.lateMean)
	return out, nil
}

// liveTracedPhases is how many fresh deployments a traced run streams,
// alternating untraced (the overhead reference) and traced, so both
// kinds see the same machine.
const liveTracedPhases = 6

// liveTraced streams a short warm-up, then alternates untraced and
// traced phases with the CPU profile on throughout. Per-layer metrics
// come from the traced phases (spans, counters) and from the profile
// (the program's work is the same in both kinds).
func liveTraced(cfg runConfig, out *outcome) (*outcome, error) {
	phase := func(name string, seconds float64, tr *tracer) (*livePhase, error) {
		virtual := liveVirtual(seconds)
		d, err := setupLive(filepath.Join(cfg.scratch, name), cfg.seed, virtual, tr)
		if err != nil {
			return nil, err
		}
		defer d.close()
		return d.stream(seconds, tr)
	}
	if _, err := phase("warmup", liveWarmup, nil); err != nil {
		return nil, err
	}
	tr := newTracer()
	prof, err := startProfiler()
	if err != nil {
		return nil, err
	}
	start := readUsage()
	var traced *livePhase
	var refCost, tracedCost []float64
	var frames float64
	perFrame := func(ph *livePhase) float64 { return ratio(ms(ph.cpu-ph.gen.cpu), ph.frames) }
	for i := 0; i < liveTracedPhases; i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		p, err := phase(fmt.Sprintf("phase-%d", i), cfg.seconds/liveTracedPhases, t)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		p.check(out)
		frames += p.frames
		if t == nil {
			refCost = append(refCost, perFrame(p))
			continue
		}
		tracedCost = append(tracedCost, perFrame(p))
		if traced == nil {
			traced = p
		} else {
			traced.merge(p)
		}
	}
	end := readUsage()
	cpu, alloc, err := prof.stop(cfg.traceDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.workload, cfg.seed))); err != nil {
		return nil, err
	}
	p := traced
	out.attempted, out.failed = int64(p.attempted), int64(p.failed)

	l := out.layers
	visionAndCamera(l, cpu, alloc, tr, p.counts, p.frames)
	phaseMetrics(out, cpu, start, end, frames)
	l["camnode.cpu_ms_per_frame"] = perFrame(p)
	l["trace.overhead_frac"] = median(tracedCost)/median(refCost) - 1
	l["camnode.source_wait_p99_ms"] = quantile(p.waits, 0.99)
	l["camnode.commit_p50_ms"] = 1e3 * p.commit.quantile(0.5)
	l["camnode.commit_p90_ms"] = 1e3 * p.commit.quantile(tailQuantile(int(p.commit.total), 0.9))
	events := p.counts["coralpie_camnode_events_total"]
	l["transport.msgs_per_event"] = ratio(tr.count("transport.msgs"), events)
	l["transport.send_us"] = tr.meanUS("transport.send")
	l["transport.bytes_per_frame"] = ratio(tr.count("transport.bytes"), p.frames)
	l["trajstore.add_vertex_us"] = tr.meanUS("trajstore.add_vertex")
	l["rpc.latency_p50_us"] = 1e6 * median(tr.durations("rpc.add_vertex"))
	l["rpc.retries"] = p.counts["coralpie_rpc_retries_total"] + p.counts["coralpie_transport_retries_total"]
	l["trajstore.edge_ack_ms"] = tr.meanUS("trajstore.edge_ack") / 1e3
	l["trajstore.edges_per_flush"] = ratio(tr.count("trajstore.flushed_edges"), tr.count("trajstore.flushes"))
	l["trajstore.flush_ms"] = tr.meanUS("trajstore.flush") / 1e3
	l["topology.pushes"] = p.counts["coralpie_topology_pushes_total"] / float64(len(tracedCost))
	l["gen.cpu_frac"] = ratio(float64(p.gen.cpu), float64(p.cpu))
	l["gen.late_max_ms"] = ms(p.gen.lateMax)
	return out, nil
}

// merge folds another phase's counts and samples into p.
func (p *livePhase) merge(o *livePhase) {
	p.gen.released += o.gen.released
	p.gen.dropped += o.gen.dropped
	p.gen.cpu += o.gen.cpu
	p.gen.lates = append(p.gen.lates, o.gen.lates...)
	if o.gen.lateMax > p.gen.lateMax {
		p.gen.lateMax = o.gen.lateMax
	}
	p.wall += o.wall
	p.cpu += o.cpu
	p.frames += o.frames
	p.waits = append(p.waits, o.waits...)
	for i := range p.commit.count {
		p.commit.count[i] += o.commit.count[i]
	}
	p.commit.total += o.commit.total
	for k, v := range o.counts {
		p.counts[k] += v
	}
	p.attempted += o.attempted
	p.failed += o.failed
}
