package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/feature"
	"repro/internal/framestore"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/trajstore"
	"repro/internal/transport"
)

// evidence-query: reads beside writes on the storage tier, no vision.
// Set-up preloads seeded multi-hop tracks into a disk-backed trajstore
// server and one evidence frame per sighting into two disk-backed
// framestore replicas whose read caches are smaller than the evidence
// working set. The timed phase runs a paced writer (one camera's 15
// frames/s through MultiClient to both replicas, plus new tracks' edges
// through a BatchWriter) beside a closed-loop investigator that fetches
// the best track through a skewed-drawn sighting and reads and verifies
// one evidence frame per hop.
const (
	evCameras   = 8
	evVehicles  = 30
	evHops      = 4
	evReplicas  = 2
	evCache     = 16 // frames per replica read cache; the working set is evVehicles*evHops
	evWriterFPS = 15
	// The investigator's draw is skewed: evHotDraw of the draws pick a
	// sighting of a seeded hot set of evHotFrac of the vehicles, the rest
	// any sighting. The hot vehicles' frames outnumber the cache, so the
	// cache helps without holding the whole hot set.
	evHotFrac = 0.2
	evHotDraw = 0.8
	// evThink is the investigator's pause between investigations: it
	// keeps the closed loop from saturating a core, which would starve
	// the paced writer's timer on a small machine.
	evThink    = 10 * time.Millisecond
	evWidth    = 256
	evHeight   = 192
	evLiveCam  = "live-cam"
	evTrackLen = 4 // sightings per track the writer adds
	evWarmup   = 3 // seconds a traced run runs before it measures
	evWindows  = 6 // slices of a run whose latency quantiles are medianed
	evSetups   = 5 // set-ups per run whose times are medianed
)

// evSighting is one preloaded vertex.
type evSighting struct {
	id     int64
	event  protocol.EventID
	camera string
	truth  string
	best   []int64 // vertex IDs of the right answer: its vehicle's track
}

// evDeployment is one set-up of the workload.
type evDeployment struct {
	dir       string
	reg       *obs.Registry
	store     *trajstore.Store
	srv       *trajstore.Server
	replicas  []*framestore.Store
	repEPs    []*transport.TCP
	repSrvs   []*framestore.Server
	sightings []evSighting
	truthOf   map[int64]string // vehicle of every preloaded vertex
	nextSeq   int64            // the writer's next frame sequence number
	crc       map[int64]uint32 // evidence frame checksum by vertex ID
	pixels    [][]byte         // the writer's frame contents, cycled
}

// pixelsFor fills a frame-sized buffer from a seeded generator.
func pixelsFor(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, evWidth*evHeight*3)
	for i := 0; i+8 <= len(b); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

// setupEvidence builds the stores, preloads the graph and the evidence
// frames, computes every expected answer, and starts the servers.
func setupEvidence(dir string, seed int64) (*evDeployment, error) {
	d := &evDeployment{dir: dir, reg: obs.NewRegistry(), truthOf: map[int64]string{}, crc: map[int64]uint32{}}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	var err error
	if d.store, err = trajstore.Open(filepath.Join(dir, "trajstore")); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	type hop struct {
		vehicle int
		at      time.Time
	}
	epoch := time.Date(2020, 12, 7, 8, 0, 0, 0, time.UTC)
	var hops []hop
	var writes []protocol.TrajWrite
	for v := 0; v < evVehicles; v++ {
		first := rng.Intn(evCameras - evHops + 1)
		at := epoch.Add(time.Duration(v)*2*time.Second + time.Duration(rng.Intn(1000))*time.Millisecond)
		for h := 0; h < evHops; h++ {
			cam := first + h
			hops = append(hops, hop{vehicle: v, at: at})
			writes = append(writes, protocol.VertexWrite(protocol.DetectionEvent{
				ID:        protocol.NewEventID(fmt.Sprintf("cam%d", cam), int64(v)),
				CameraID:  fmt.Sprintf("cam%d", cam),
				Timestamp: at,
				Direction: geo.East,
				Histogram: feature.Histogram{Bins: make([]float64, feature.HistogramSize)},
				TrackID:   int64(v),
				TruthID:   fmt.Sprintf("veh-%03d", v),
			}))
			at = at.Add(time.Duration(7000+rng.Intn(4000)) * time.Millisecond)
		}
	}
	ids, errs, err := d.store.ApplyBatch(writes)
	if err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("evidence: preload vertex %d: %w", i, e)
		}
	}
	// Each vehicle's consecutive sightings are linked, so the right
	// answer through any sighting is that vehicle's whole track.
	var edges []protocol.TrajWrite
	for i := 0; i+1 < len(hops); i++ {
		if hops[i+1].vehicle == hops[i].vehicle {
			edges = append(edges, protocol.EdgeWrite(ids[i], ids[i+1], 0.05+0.3*rng.Float64()))
		}
	}
	if _, errs, err = d.store.ApplyBatch(edges); err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("evidence: preload edge %d: %w", i, e)
		}
	}
	for i, h := range hops {
		ev := writes[i].Event
		s := evSighting{id: ids[i], event: ev.ID, camera: ev.CameraID, truth: ev.TruthID}
		for j := range hops {
			if hops[j].vehicle == h.vehicle {
				s.best = append(s.best, ids[j])
			}
		}
		d.sightings = append(d.sightings, s)
		d.truthOf[ids[i]] = ev.TruthID
	}

	for r := 0; r < evReplicas; r++ {
		st, err := framestore.OpenStoreConfig(filepath.Join(dir, fmt.Sprintf("frames-%d", r)),
			framestore.Config{CacheFrames: evCache})
		if err != nil {
			return nil, err
		}
		st.Instrument(d.reg, nil)
		d.replicas = append(d.replicas, st)
	}
	for i, s := range d.sightings {
		pix := pixelsFor(seed*1_000_003 + s.id)
		d.crc[s.id] = crc32.ChecksumIEEE(pix)
		rec := protocol.FrameRecord{CameraID: s.camera, Seq: s.id, Timestamp: hops[i].at,
			Width: evWidth, Height: evHeight, Pixels: pix}
		for _, st := range d.replicas {
			if err := st.Put(rec); err != nil {
				return nil, err
			}
		}
	}
	for k := 0; k < 4; k++ {
		d.pixels = append(d.pixels, pixelsFor(seed*7_919+int64(k)))
	}

	// Finer buckets than the default, registered before the server.
	d.reg.Histogram("coralpie_query_latency_seconds",
		"server-side query execution latency (cache hits included)", obs.ExpBuckets(1e-6, 1.03, 500))
	if d.srv, err = trajstore.ServeWith(d.store, "127.0.0.1:0", trajstore.ServerOptions{Registry: d.reg}); err != nil {
		return nil, err
	}
	for _, st := range d.replicas {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d.repEPs = append(d.repEPs, ep)
		srv, err := framestore.NewServer(st, ep)
		if err != nil {
			return nil, err
		}
		d.repSrvs = append(d.repSrvs, srv)
	}
	ok = true
	return d, nil
}

func (d *evDeployment) close() {
	for _, ep := range d.repEPs {
		_ = ep.Close()
	}
	for _, srv := range d.repSrvs {
		_ = srv.Shutdown(context.Background())
	}
	for _, st := range d.replicas {
		_ = st.Close()
	}
	if d.srv != nil {
		_ = d.srv.Close()
	}
	if d.store != nil {
		_ = d.store.Close()
	}
	_ = os.RemoveAll(d.dir)
}

// evPhase is what one timed phase measured.
type evPhase struct {
	wall          time.Duration
	cpu           time.Duration
	investigation []float64 // ms per investigation
	investAt      []float64 // seconds into the phase each investigation started
	track         []float64 // ms per best-track fetch
	evidence      []float64 // ms per investigation reading its hop frames
	acks          []float64 // ms from a writer tick's due time to its edge ack
	lates         []float64 // ms each writer tick started late
	framesSent    int64
	framesStored  int64
	hopReads      int64
	correctHops   int64 // handoffs in answers that stay on the queried vehicle
	answerHops    int64 // handoffs in answers
	trueHops      int64 // handoffs the queried vehicles really made
	attempted     int64
	failed        int64
	problems      []string
}

// evClients are the two clients of a phase and what they write through.
type evClients struct {
	query  *trajstore.Client
	wcl    *trajstore.Client
	wep    *transport.TCP
	writer *trajstore.BatchWriter
	sink   interface {
		StoreFrameContext(ctx context.Context, rec protocol.FrameRecord) error
	}
	traj interface {
		AddVertex(e protocol.DetectionEvent) (int64, error)
		QueueEdge(from, to int64, weight float64, done func(error))
		Flush(ctx context.Context) error
	}
}

func (d *evDeployment) dial(tr *tracer) (*evClients, error) {
	c := &evClients{}
	var err error
	ctx := context.Background()
	if c.query, err = trajstore.DialContext(ctx, d.srv.Addr(), trajstore.ClientConfig{Registry: d.reg}); err != nil {
		return nil, err
	}
	if c.wcl, err = trajstore.DialContext(ctx, d.srv.Addr(), trajstore.ClientConfig{Registry: d.reg}); err != nil {
		c.close()
		return nil, err
	}
	if c.wep, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		c.close()
		return nil, err
	}
	c.wep.Use(d.reg)
	addrs := make([]string, len(d.repEPs))
	for i, ep := range d.repEPs {
		addrs[i] = ep.Addr()
	}
	var ep transport.Endpoint = c.wep
	var bc trajstore.BatchClient = c.wcl
	if tr != nil {
		ep = tracedEndpoint{Endpoint: c.wep, tr: tr}
		bc = tracedBatchClient{c: c.wcl, tr: tr}
	}
	mc, err := framestore.NewMultiClient(ep, addrs, framestore.MultiClientConfig{Registry: d.reg})
	if err != nil {
		c.close()
		return nil, err
	}
	c.writer = trajstore.NewBatchWriter(bc, trajstore.BatchWriterConfig{})
	c.sink, c.traj = mc, c.writer
	if tr != nil {
		c.sink = tracedFrameSink{mc: mc, tr: tr}
		c.traj = tracedTrajSink{w: c.writer, tr: tr}
	}
	return c, nil
}

func (c *evClients) close() {
	if c.writer != nil {
		_ = c.writer.Close()
	}
	for _, cl := range []*trajstore.Client{c.query, c.wcl} {
		if cl != nil {
			_ = cl.Close()
		}
	}
	if c.wep != nil {
		_ = c.wep.Close()
	}
}

// run drives the writer and the investigator for seconds.
func (d *evDeployment) run(seconds float64, seed int64, tr *tracer) (*evPhase, error) {
	c, err := d.dial(tr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	p := &evPhase{}
	stored0 := d.storedLive()
	cpu0 := cpuTime(syscall.RUSAGE_SELF)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	// The writer fills its own phase record, merged once it has
	// finished, so the two loops share no state.
	w := &evPhase{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.write(c, w, start, deadline)
	}()
	d.investigate(c, p, seed, deadline, tr)
	wg.Wait()
	p.merge(w)
	p.wall = time.Since(start)
	p.cpu = cpuTime(syscall.RUSAGE_SELF) - cpu0

	// Every frame the writer sent must reach both replicas.
	want := p.framesSent
	wait := time.Now().Add(5 * time.Second)
	for {
		p.framesStored = d.storedLive() - stored0
		if p.framesStored >= want*evReplicas || time.Now().After(wait) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if missing := want*evReplicas - p.framesStored; missing > 0 {
		p.failed += missing
		p.problems = append(p.problems, fmt.Sprintf("%d written frames missing from a replica", missing))
	}
	return p, nil
}

// storedLive counts the writer's frames across the replicas.
func (d *evDeployment) storedLive() int64 {
	var n int64
	for _, st := range d.replicas {
		n += int64(st.Count(evLiveCam))
	}
	return n
}

// write is the paced writer: one frame to every replica per tick of
// one paper camera, plus one sighting of a synthetic track and the edge
// linking it to the track's previous sighting. It never waits for an
// edge ack; the ack latency is timed from the tick's due time.
func (d *evDeployment) write(c *evClients, p *evPhase, start, deadline time.Time) {
	interval := time.Second / evWriterFPS
	var mu sync.Mutex
	var pending sync.WaitGroup
	var prev int64
	ctx := context.Background()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			break
		}
		seq := d.nextSeq
		d.nextSeq++
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late := ms(time.Since(due))
		rec := protocol.FrameRecord{CameraID: evLiveCam, Seq: seq, Timestamp: due,
			Width: evWidth, Height: evHeight, Pixels: d.pixels[k%len(d.pixels)]}
		err := c.sink.StoreFrameContext(ctx, rec)
		id, verr := c.traj.AddVertex(protocol.DetectionEvent{
			ID:        protocol.NewEventID(evLiveCam, seq),
			CameraID:  evLiveCam,
			Timestamp: due,
			Direction: geo.East,
			Histogram: feature.Histogram{Bins: make([]float64, feature.HistogramSize)},
			TrackID:   seq,
		})
		mu.Lock()
		p.lates = append(p.lates, late)
		p.framesSent++
		p.attempted += 2
		if err != nil {
			p.failed++
		}
		if verr != nil {
			p.failed++
		}
		mu.Unlock()
		if verr != nil {
			prev = 0
			continue
		}
		if prev != 0 && k%evTrackLen != 0 {
			pending.Add(1)
			mu.Lock()
			p.attempted++
			mu.Unlock()
			c.traj.QueueEdge(prev, id, 0.2, func(err error) {
				defer pending.Done()
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					p.failed++
					return
				}
				p.acks = append(p.acks, ms(time.Since(due)))
			})
		}
		prev = id
	}
	if err := c.traj.Flush(ctx); err != nil {
		mu.Lock()
		p.problems = append(p.problems, "writer flush: "+err.Error())
		mu.Unlock()
	}
	pending.Wait()
}

// investigate is the closed-loop investigator: draw a sighting, fetch
// the best track through it, check it against the expected answer, then
// read and verify one evidence frame per hop.
func (d *evDeployment) investigate(c *evClients, p *evPhase, seed int64, deadline time.Time, tr *tracer) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	// Sightings are stored vehicle by vehicle, evHops each.
	vehicles := rng.Perm(len(d.sightings) / evHops)
	hot := int(evHotFrac * float64(len(vehicles)))
	limits := trajstore.DefaultTraceLimits()
	ctx := context.Background()
	phaseStart := time.Now()
	var n int
	for ; time.Now().Before(deadline); n++ {
		if n > 0 {
			time.Sleep(evThink)
		}
		pick := rng.Intn(len(d.sightings))
		if rng.Float64() < evHotDraw {
			pick = vehicles[rng.Intn(hot)]*evHops + rng.Intn(evHops)
		}
		s := d.sightings[pick]
		t0 := time.Now()
		track, err := c.query.BestContext(ctx, s.event, limits)
		t1 := time.Now()
		root := tr.record("query.best", 0, t0, t1)
		p.attempted++
		if err != nil || !sameHops(track, s.best) {
			p.failed++
			p.problems = append(p.problems, fmt.Sprintf("best track through %s: got %v (err %v), want %v",
				s.event, hopIDs(track), err, s.best))
			continue
		}
		for i, h := range track.Hops {
			st := d.replicas[(n+i)%len(d.replicas)]
			gs := time.Now()
			rec, err := st.Get(h.Camera, h.VertexID)
			tr.record("framestore.get", root, gs, time.Now())
			p.attempted++
			p.hopReads++
			if err != nil || crc32.ChecksumIEEE(rec.Pixels) != d.crc[h.VertexID] || len(rec.Pixels) != evWidth*evHeight*3 {
				p.failed++
				p.problems = append(p.problems, fmt.Sprintf("evidence frame %s/%d: wrong bytes (err %v)", h.Camera, h.VertexID, err))
			}
		}
		t2 := time.Now()
		for i := 0; i+1 < len(track.Hops); i++ {
			a, b := d.truthOf[track.Hops[i].VertexID], d.truthOf[track.Hops[i+1].VertexID]
			if a == s.truth && b == s.truth {
				p.correctHops++
			}
		}
		p.answerHops += int64(len(track.Hops) - 1)
		p.trueHops += evHops - 1
		p.track = append(p.track, ms(t1.Sub(t0)))
		p.evidence = append(p.evidence, ms(t2.Sub(t1)))
		p.investigation = append(p.investigation, ms(t2.Sub(t0)))
		p.investAt = append(p.investAt, t0.Sub(phaseStart).Seconds())
	}
}

func hopIDs(t trajstore.Track) []int64 {
	out := make([]int64, len(t.Hops))
	for i, h := range t.Hops {
		out[i] = h.VertexID
	}
	return out
}

func sameHops(t trajstore.Track, want []int64) bool {
	if len(t.Hops) != len(want) {
		return false
	}
	for i, h := range t.Hops {
		if h.VertexID != want[i] {
			return false
		}
	}
	return true
}

// check applies the writer's schedule rules.
func (p *evPhase) check(out *outcome) {
	for i, pr := range p.problems {
		if i == 5 {
			out.problem("... %d more", len(p.problems)-5)
			break
		}
		out.problem("%s", pr)
	}
	interval := ms(time.Second / evWriterFPS)
	if late := quantile(p.lates, 0.99); late > interval {
		out.problem("invalid run: writer p99 lateness %.2f ms exceeds its %.1f ms interval", late, interval)
	}
	if len(p.investigation) == 0 {
		out.problem("no investigation completed")
	}
}

func runEvidenceQuery(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	// Set up evSetups times; the last deployment is the one measured.
	// The preload writes 240 frames of about 200 KB, and the median of
	// three set-ups moved between 0.13 and 0.26 s from run to run.
	var d *evDeployment
	for i := 0; i < evSetups; i++ {
		start := time.Now()
		var err error
		d, err = setupEvidence(filepath.Join(cfg.scratch, fmt.Sprintf("evidence-%d", i)), cfg.seed)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
		if i < evSetups-1 {
			d.close()
		}
	}
	defer d.close()
	if cfg.trace {
		return evidenceTraced(cfg, out, d)
	}
	p, err := d.run(cfg.seconds, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	p.check(out)
	out.attempted, out.failed = p.attempted, p.failed
	n := len(p.investigation)
	out.e2e["handoff_precision"] = ratio(float64(p.correctHops), float64(p.answerHops))
	out.e2e["handoff_recall"] = ratio(float64(p.correctHops), float64(p.trueHops))
	// Medians over evWindows slices of the run, so one slow stretch of
	// a shared machine moves one slice, not the result. The tail is the
	// upper quartile: above it lie the investigations that missed the
	// cache on every hop or met a replica put or a GC cycle, and the
	// p90 moved 35% between runs of one seed.
	out.e2e["p50_ms"] = windowedQuantile(p.investigation, p.investAt, cfg.seconds, evWindows, 0.5)
	out.e2e["tail_ms"] = windowedQuantile(p.investigation, p.investAt, cfg.seconds, evWindows, 0.75)
	out.note("investigation p75 %.3f p90 %.3f p95 %.3f p99 %.3f ms; frame cache hits %.0f of %.0f reads",
		quantile(p.investigation, 0.75), quantile(p.investigation, 0.9), quantile(p.investigation, 0.95), quantile(p.investigation, 0.99),
		counterSum(d.reg, "coralpie_framestore_cache_hits_total"), float64(p.hopReads))
	out.note("%d investigations; track_p50_ms %.3f track_p99_ms %.3f evidence_p50_ms %.3f evidence_p99_ms %.3f",
		n, median(p.track), quantile(p.track, tailQuantile(n, 0.99)),
		median(p.evidence), quantile(p.evidence, tailQuantile(n, 0.99)))
	out.note("writer: %d frames, ingest_ack_p99_ms %.3f over %d edge acks, late p99 %.2f ms",
		p.framesSent, quantile(p.acks, tailQuantile(len(p.acks), 0.99)), len(p.acks), quantile(p.lates, 0.99))
	return out, nil
}

// evTracedPhases is how many phases a traced run alternates between
// untraced (the overhead reference) and traced, on the same deployment.
const evTracedPhases = 6

// evidenceTraced runs a short warm-up, then alternates untraced and
// traced phases with the CPU profile on throughout. Per-layer metrics
// come from the traced phases (spans, samples) and from the profile and
// registry deltas over all phases (the program's work is the same).
func evidenceTraced(cfg runConfig, out *outcome, d *evDeployment) (*outcome, error) {
	if _, err := d.run(evWarmup, cfg.seed, nil); err != nil {
		return nil, err
	}
	tr := newTracer()
	reg0 := snapshotCounters(d.reg, evCounters)
	query0 := readHistogram(d.reg, "coralpie_query_latency_seconds")
	prof, err := startProfiler()
	if err != nil {
		return nil, err
	}
	start := readUsage()
	var p *evPhase
	var refCost, tracedCost []float64
	var frames, sent float64
	perOp := func(ph *evPhase) float64 { return ratio(ph.cpu.Seconds(), float64(len(ph.investigation))) }
	for i := 0; i < evTracedPhases; i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		ph, err := d.run(cfg.seconds/evTracedPhases, cfg.seed+int64(i), t)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		ph.check(out)
		frames += float64(ph.framesSent + ph.hopReads)
		sent += float64(ph.framesSent)
		if t == nil {
			refCost = append(refCost, perOp(ph))
			continue
		}
		tracedCost = append(tracedCost, perOp(ph))
		if p == nil {
			p = ph
		} else {
			p.merge(ph)
		}
	}
	end := readUsage()
	cpu, _, err := prof.stop(cfg.traceDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.workload, cfg.seed))); err != nil {
		return nil, err
	}
	out.attempted, out.failed = p.attempted, p.failed
	counts := snapshotCounters(d.reg, evCounters)
	for k, v := range reg0 {
		counts[k] -= v
	}
	n := len(p.investigation)
	l := out.layers
	phaseMetrics(out, cpu, start, end, frames)
	l["trace.overhead_frac"] = median(tracedCost)/median(refCost) - 1
	l["query.track_p50_ms"] = median(p.track)
	l["query.track_p99_ms"] = quantile(p.track, tailQuantile(n, 0.99))
	l["framestore.evidence_p50_ms"] = median(p.evidence)
	l["framestore.evidence_p99_ms"] = quantile(p.evidence, tailQuantile(n, 0.99))
	l["trajstore.ingest_ack_p99_ms"] = quantile(p.acks, tailQuantile(len(p.acks), 0.99))
	rpcs := append(tr.durations("query.best"), tr.durations("rpc.add_vertex")...)
	l["rpc.latency_p50_us"] = 1e6 * median(rpcs)
	l["rpc.retries"] = counts["coralpie_rpc_retries_total"] + counts["coralpie_transport_retries_total"]
	misses := counts["coralpie_query_cache_misses_total"]
	l["trajstore.reconstruct_us"] = ratio(cpu.inclusive(entryReconst)/1e3, misses)
	l["query.server_p50_us"] = 1e6 * readHistogram(d.reg, "coralpie_query_latency_seconds").minus(query0).quantile(0.5)
	l["query.cache_hit_frac"] = ratio(counts["coralpie_query_cache_hits_total"], counts["coralpie_query_cache_hits_total"]+misses)
	l["framestore.get_us"] = tr.meanUS("framestore.get")
	fh, fm := counts["coralpie_framestore_cache_hits_total"], counts["coralpie_framestore_cache_misses_total"]
	l["framestore.cache_hit_frac"] = ratio(fh, fh+fm)
	l["framestore.put_us"] = tr.meanUS("framestore.put")
	l["framestore.stored_frac"] = ratio(float64(p.framesStored), float64(p.framesSent*evReplicas))
	l["transport.bytes_per_frame"] = ratio(counts["coralpie_transport_bytes_out_total"], sent*evReplicas)
	l["transport.send_us"] = tr.meanUS("transport.send")
	l["trajstore.add_vertex_us"] = tr.meanUS("trajstore.add_vertex")
	l["trajstore.edge_ack_ms"] = tr.meanUS("trajstore.edge_ack") / 1e3
	l["trajstore.edges_per_flush"] = ratio(tr.count("trajstore.flushed_edges"), tr.count("trajstore.flushes"))
	l["trajstore.flush_ms"] = tr.meanUS("trajstore.flush") / 1e3
	l["gen.cpu_frac"] = ratio(cpu.byLayer()["gen"], float64(cpu.total))
	l["gen.late_max_ms"] = quantile(p.lates, 1)
	return out, nil
}

// merge folds another phase's samples and counts into p.
func (p *evPhase) merge(o *evPhase) {
	p.wall += o.wall
	p.cpu += o.cpu
	p.investigation = append(p.investigation, o.investigation...)
	p.investAt = append(p.investAt, o.investAt...)
	p.track = append(p.track, o.track...)
	p.evidence = append(p.evidence, o.evidence...)
	p.acks = append(p.acks, o.acks...)
	p.lates = append(p.lates, o.lates...)
	p.framesSent += o.framesSent
	p.framesStored += o.framesStored
	p.hopReads += o.hopReads
	p.correctHops += o.correctHops
	p.answerHops += o.answerHops
	p.trueHops += o.trueHops
	p.attempted += o.attempted
	p.failed += o.failed
	p.problems = append(p.problems, o.problems...)
}

// evCounters are the registry counters the per-layer metrics read.
var evCounters = []string{
	"coralpie_rpc_retries_total",
	"coralpie_transport_retries_total",
	"coralpie_transport_bytes_out_total",
	"coralpie_query_cache_hits_total",
	"coralpie_query_cache_misses_total",
	"coralpie_framestore_cache_hits_total",
	"coralpie_framestore_cache_misses_total",
}

func snapshotCounters(reg *obs.Registry, names []string) map[string]float64 {
	out := map[string]float64{}
	for _, n := range names {
		out[n] = counterSum(reg, n)
	}
	return out
}
