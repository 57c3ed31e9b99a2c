package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/vision"
)

// des-corridor: a closed-loop batch run of the whole simulated
// deployment (core.NewSystem) on a camera corridor with seeded traffic,
// run to completion and repeated with the same seed while time remains.
const (
	desCameras  = 8
	desSpacing  = 120.0 // meters between cameras
	desVehicles = 24
	desFPS      = 15
	// desExtraSetups are timed before the first run, beside the set-up
	// of every run.
	desExtraSetups = 20
)

var corridorOrigin = geo.Point{Lat: 33.7756, Lon: -84.3963}

// corridorTraffic generates seeded vehicles on a corridor: mostly
// eastbound, some westbound, with seeded departure gaps and speeds.
// With partial set they enter and leave at seeded intersections near
// the ends; otherwise every vehicle drives the whole corridor.
func corridorTraffic(seed int64, nodes []roadnet.NodeID, vehicles int, meanGap time.Duration, partial bool) []sim.VehicleSpec {
	rng := rand.New(rand.NewSource(seed))
	n := len(nodes)
	var out []sim.VehicleSpec
	depart := time.Second
	for v := 0; v < vehicles; v++ {
		from, to := 0, n-1
		if partial {
			from, to = rng.Intn(2), n-1-rng.Intn(2)
		}
		route := append([]roadnet.NodeID(nil), nodes[from:to+1]...)
		if rng.Float64() < 0.3 {
			for i, j := 0, len(route)-1; i < j; i, j = i+1, j-1 {
				route[i], route[j] = route[j], route[i]
			}
		}
		out = append(out, sim.VehicleSpec{
			ID:       fmt.Sprintf("veh-%03d", v),
			Color:    sim.PaletteColor(v),
			SpeedMPS: 12 + rng.Float64()*6,
			Route:    route,
			Depart:   depart,
		})
		depart += time.Duration((0.5 + rng.Float64()) * float64(meanGap))
	}
	return out
}

// fnv64 is the FNV-1a hash core.NewSystem seeds each camera's default
// detector with; a traced run rebuilds that same detector to wrap it.
func fnv64(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// desRun is one DES run to completion.
type desRun struct {
	setup     time.Duration
	wall      time.Duration
	simTime   time.Duration
	frames    float64
	secMS     []float64 // wall ms per camera-frame, one per simulated second
	digest    string
	score     handoffScore
	reg       *obs.Registry
	sendErrs  float64
	attempted float64
	traced    bool
}

// buildDES sets up one deployment; tr, when non-nil, wraps every
// camera's detector.
func buildDES(seed int64, tr *tracer) (*core.System, *obs.Registry, error) {
	graph, nodes, err := roadnet.Corridor(desCameras, desSpacing, corridorOrigin)
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	cfg := core.Config{Graph: graph, Seed: seed, EnableMonitor: true, Registry: reg, CameraFPS: desFPS}
	if tr != nil {
		cfg.DetectorFactory = func(id string) (vision.Detector, error) {
			d, err := vision.NewSimDetector(vision.DefaultSimDetectorConfig(seed ^ int64(fnv64(id))))
			if err != nil {
				return nil, err
			}
			return tracedDetector{Detector: d, tr: tr}, nil
		}
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	for i, node := range nodes {
		if err := sys.AddCameraAt(fmt.Sprintf("cam%d", i), node, 0); err != nil {
			return nil, nil, err
		}
	}
	for _, spec := range corridorTraffic(seed, nodes, desVehicles, 2*time.Second, true) {
		if err := sys.World().AddVehicle(spec); err != nil {
			return nil, nil, err
		}
	}
	sys.Start(context.Background())
	return sys, reg, nil
}

// runDES builds and runs one deployment to completion.
func runDES(seed int64, tr *tracer) (*desRun, error) {
	start := time.Now()
	sys, reg, err := buildDES(seed, tr)
	if err != nil {
		return nil, err
	}
	r := &desRun{setup: time.Since(start), reg: reg}
	var frames []*obs.Counter
	for _, id := range sys.CameraIDs() {
		frames = append(frames, reg.Counter("coralpie_camnode_frames_total", "frames processed", "camera", id))
	}
	countFrames := func() float64 {
		var n int64
		for _, c := range frames {
			n += c.Value()
		}
		return float64(n)
	}
	r.simTime = sys.World().LastVehicleDone() + 5*time.Second
	runStart := time.Now()
	prevT, prevF := runStart, 0.0
	for done := time.Duration(0); done < r.simTime; done += time.Second {
		sys.Run(time.Second)
		now, f := time.Now(), countFrames()
		if f > prevF {
			r.secMS = append(r.secMS, ms(now.Sub(prevT))/(f-prevF))
		}
		prevT, prevF = now, f
	}
	sys.Stop()
	if err := sys.FlushAll(); err != nil {
		return nil, err
	}
	r.wall = time.Since(runStart)
	r.frames = countFrames()
	vs, es, err := readGraph(sys.TrajStore())
	if err != nil {
		return nil, err
	}
	r.digest = graphDigest(vs, es)
	r.score = scoreHandoffs(vs, es)
	r.sendErrs = counterSum(reg, "coralpie_camnode_send_errors_total")
	r.attempted = r.frames + counterSum(reg, "coralpie_camnode_events_total") +
		counterSum(reg, "coralpie_camnode_informs_sent_total") + r.sendErrs
	if err := sys.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	return r, nil
}

func runDESCorridor(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	deadline := deadlineAfter(cfg.seconds)
	// A set-up takes about a millisecond, so time many: their median
	// is what a run reports.
	for i := 0; i < desExtraSetups; i++ {
		start := time.Now()
		sys, _, err := buildDES(cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
		sys.Stop()
	}
	// Collect finished systems and return their pages to the OS before
	// every run, so each run starts from the same heap: otherwise the
	// peak RSS depends on where GC cycles fell across runs and moved by
	// a fifth between seeds.
	debug.FreeOSMemory()

	// A traced invocation alternates untraced and traced runs, so the
	// tracing overhead compares runs that saw the same machine; the
	// profile covers every run after the first, which warms up.
	var tr *tracer
	var prof *profiler
	var runs []*desRun
	var phaseStart usage
	for {
		var runTracer *tracer
		if cfg.trace && len(runs) >= 1 {
			if tr == nil {
				tr = newTracer()
				var err error
				if prof, err = startProfiler(); err != nil {
					return nil, err
				}
				phaseStart = readUsage()
			}
			if len(runs)%2 == 1 {
				runTracer = tr
			}
		}
		r, err := runDES(cfg.seed, runTracer)
		if err != nil {
			return nil, err
		}
		debug.FreeOSMemory()
		r.traced = runTracer != nil
		out.setups = append(out.setups, r.setup.Seconds())
		runs = append(runs, r)
		if len(runs) >= 2 && time.Now().Add(r.wall+r.setup).After(deadline) {
			break
		}
	}

	first := runs[0]
	for i, r := range runs {
		out.note("run %d: digest %s  %.0f frames in %.2fs  %d edges  traced %v", i, r.digest, r.frames, r.wall.Seconds(), r.score.edges, r.traced)
		if r.digest != first.digest {
			out.problem("same-seed run %d (traced %v) graph digest %s differs from run 0 digest %s", i, r.traced, r.digest, first.digest)
		}
		out.attempted += int64(r.attempted)
		out.failed += int64(r.sendErrs)
	}
	var secs []float64
	var wall time.Duration
	var frames float64
	for _, r := range runs {
		secs = append(secs, r.secMS...)
		wall += r.wall
		frames += r.frames
	}
	out.e2e["handoff_precision"] = first.score.precision()
	out.e2e["handoff_recall"] = first.score.recall()
	// Per simulated second, not per 1/15 s step: a GC cycle spans a few
	// steps, so per-step times put the p90 on the edge of the GC-hit
	// steps, where it moved 15% between seeds. The tail is the upper
	// quartile: the p90 seconds are the seconds of a seed's densest
	// traffic and moved about 20% between seeds.
	out.e2e["p50_ms"] = median(secs)
	out.e2e["tail_ms"] = quantile(secs, 0.75)
	out.note("ms per camera-frame per simulated second: p50 %.4f p75 %.4f p90 %.4f p99 %.4f over %d seconds",
		median(secs), quantile(secs, 0.75), quantile(secs, 0.9), quantile(secs, 0.99), len(secs))
	out.note("des_us_per_frame %.2f us (wall per simulated camera-frame, %d runs)", 1e6*wall.Seconds()/frames, len(runs))
	out.note("handoffs: %d edges, %d true, %d of %d true handoffs found",
		first.score.edges, first.score.truePos, first.score.found, first.score.transitions)
	if !cfg.trace {
		return out, nil
	}

	phaseEnd := readUsage()
	cpu, alloc, err := prof.stop(cfg.traceDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	if err := tr.write(fmt.Sprintf("%s/%s-seed%d.spans.jsonl", cfg.traceDir, cfg.workload, cfg.seed)); err != nil {
		return nil, err
	}
	window := runs[1:]
	var winFrames, wallTraced, framesTraced, simTraced float64
	var tracedP50, untracedP50 []float64
	counts := map[string]float64{}
	for _, r := range window {
		winFrames += r.frames
		for _, name := range append(cameraCounters, desCounters...) {
			counts[name] += counterSum(r.reg, name)
		}
		if r.traced {
			wallTraced += r.wall.Seconds()
			framesTraced += r.frames
			simTraced += r.simTime.Seconds()
			tracedP50 = append(tracedP50, median(r.secMS))
		} else {
			untracedP50 = append(untracedP50, median(r.secMS))
		}
	}
	if len(untracedP50) == 0 {
		untracedP50 = append(untracedP50, median(first.secMS))
	}
	l := out.layers
	l["des.wall_per_sim_s"] = wallTraced / simTraced
	l["des.us_per_frame"] = 1e6 * wallTraced / framesTraced
	l["trace.overhead_frac"] = median(tracedP50)/median(untracedP50) - 1
	l["fleet.ingest_us"] = ratio(cpu.inclusive(entryFleet)/1e3, counts["coralpie_fleet_heartbeats_total"])
	l["trajstore.add_vertex_us"] = ratio(cpu.inclusive(entryAddVertex)/1e3, counts["coralpie_camnode_vertices_total"])
	l["transport.msgs_per_event"] = ratio(counts["coralpie_transport_sends_total"], counts["coralpie_camnode_events_total"])
	l["topology.pushes"] = counts["coralpie_topology_pushes_total"] / float64(len(window))
	visionAndCamera(l, cpu, alloc, tr, counts, winFrames)
	phaseMetrics(out, cpu, phaseStart, phaseEnd, winFrames)
	l["gen.cpu_frac"] = ratio(cpu.byLayer()["gen"], float64(cpu.total))
	return out, nil
}

// desCounters are the DES-only counters the per-layer metrics divide by.
var desCounters = []string{
	"coralpie_fleet_heartbeats_total",
	"coralpie_transport_sends_total",
	"coralpie_topology_pushes_total",
}
