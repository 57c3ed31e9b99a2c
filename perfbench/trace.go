package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/camnode"
	"repro/internal/framestore"
	"repro/internal/protocol"
	"repro/internal/trajstore"
	"repro/internal/transport"
	"repro/internal/vision"
)

// span is one timed call across a layer boundary.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// maxSpans bounds a traced run's in-memory span log.
const maxSpans = 1 << 21

// tracer keeps a traced run's spans and counters in memory until the
// run ends. A nil *tracer records nothing, so untraced code paths can
// call it unconditionally.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
	counts  map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// record logs a finished span and returns its ID.
func (t *tracer) record(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.nextID.Add(1)
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return id
}

// add bumps a named counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) count(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// durations returns the durations of every span with the given name, in
// seconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// meanUS is the mean duration of the named spans in microseconds.
func (t *tracer) meanUS(name string) float64 {
	d := t.durations(name)
	var sum float64
	for _, v := range d {
		sum += v
	}
	return ratio(sum*1e6, float64(len(d)))
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// --- Wrappers around the public interfaces handed to the program ---
//
// Each wrapper times the calls the program makes through it and
// forwards them unchanged. It implements exactly the optional
// interfaces of the value it wraps (checked by selfTest), so camnode's
// capability checks pick the same code path traced and untraced.

// tracedDetector wraps a vision.Detector.
type tracedDetector struct {
	vision.Detector
	tr *tracer
}

func (d tracedDetector) Detect(f *vision.Frame) ([]vision.Detection, error) {
	start := time.Now()
	out, err := d.Detector.Detect(f)
	d.tr.record("vision.detect", 0, start, time.Now())
	return out, err
}

// tracedEndpoint wraps a transport.Endpoint and counts what camnode and
// its topology client send.
type tracedEndpoint struct {
	transport.Endpoint
	tr *tracer
}

func (e tracedEndpoint) Send(ctx context.Context, addr string, env protocol.Envelope) error {
	start := time.Now()
	err := e.Endpoint.Send(ctx, addr, env)
	e.tr.record("transport.send", 0, start, time.Now())
	e.tr.add("transport.msgs", 1)
	e.tr.add("transport.bytes", float64(len(env.Payload)))
	return err
}

// tracedTrajSink wraps the *trajstore.BatchWriter a camera node (or the
// evidence writer) writes its trajectory graph through: the TrajStore,
// EdgeQueuer, TracedEdgeQueuer and EdgeFlusher surfaces.
type tracedTrajSink struct {
	w  *trajstore.BatchWriter
	tr *tracer
}

func (s tracedTrajSink) AddVertex(e protocol.DetectionEvent) (int64, error) {
	start := time.Now()
	id, err := s.w.AddVertex(e)
	s.tr.record("trajstore.add_vertex", 0, start, time.Now())
	return id, err
}

func (s tracedTrajSink) AddEdge(from, to int64, weight float64) error {
	start := time.Now()
	err := s.w.AddEdge(from, to, weight)
	s.tr.record("trajstore.edge_ack", 0, start, time.Now())
	return err
}

func (s tracedTrajSink) ackTimer(done func(error)) func(error) {
	start := time.Now()
	return func(err error) {
		s.tr.record("trajstore.edge_ack", 0, start, time.Now())
		if done != nil {
			done(err)
		}
	}
}

func (s tracedTrajSink) QueueEdge(from, to int64, weight float64, done func(error)) {
	s.w.QueueEdge(from, to, weight, s.ackTimer(done))
}

func (s tracedTrajSink) QueueEdgeTraced(from, to int64, weight float64, tc protocol.TraceContext, done func(error)) {
	s.w.QueueEdgeTraced(from, to, weight, tc, s.ackTimer(done))
}

func (s tracedTrajSink) Flush(ctx context.Context) error { return s.w.Flush(ctx) }

// tracedBatchClient wraps the *trajstore.Client under a BatchWriter: it
// sees every vertex RPC and every batch flush.
type tracedBatchClient struct {
	c  *trajstore.Client
	tr *tracer
}

func (b tracedBatchClient) AddVertexContext(ctx context.Context, e protocol.DetectionEvent) (int64, error) {
	start := time.Now()
	id, err := b.c.AddVertexContext(ctx, e)
	b.tr.record("rpc.add_vertex", 0, start, time.Now())
	return id, err
}

func (b tracedBatchClient) AddBatchContext(ctx context.Context, writes []protocol.TrajWrite) ([]int64, []error, error) {
	start := time.Now()
	ids, errs, err := b.c.AddBatchContext(ctx, writes)
	b.tr.record("trajstore.flush", 0, start, time.Now())
	b.tr.add("trajstore.flushes", 1)
	b.tr.add("trajstore.flushed_edges", float64(len(writes)))
	return ids, errs, err
}

// tracedFrameSink wraps a *framestore.MultiClient: the FrameSink and
// ContextFrameSink surfaces.
type tracedFrameSink struct {
	mc *framestore.MultiClient
	tr *tracer
}

func (s tracedFrameSink) StoreFrame(rec protocol.FrameRecord) error {
	return s.StoreFrameContext(context.Background(), rec)
}

func (s tracedFrameSink) StoreFrameContext(ctx context.Context, rec protocol.FrameRecord) error {
	start := time.Now()
	err := s.mc.StoreFrameContext(ctx, rec)
	s.tr.record("framestore.put", 0, start, time.Now())
	return err
}

// capabilities lists which of camnode's sink interfaces v implements.
func capabilities(v any) string {
	has := func(ok bool) string {
		if ok {
			return "1"
		}
		return "0"
	}
	_, ts := v.(camnode.TrajStore)
	_, eq := v.(camnode.EdgeQueuer)
	_, teq := v.(camnode.TracedEdgeQueuer)
	_, tew := v.(camnode.TracedEdgeWriter)
	_, ef := v.(camnode.EdgeFlusher)
	_, fs := v.(camnode.FrameSink)
	_, cfs := v.(camnode.ContextFrameSink)
	_, det := v.(vision.Detector)
	_, ep := v.(transport.Endpoint)
	_, bc := v.(trajstore.BatchClient)
	return fmt.Sprintf("TrajStore=%s EdgeQueuer=%s TracedEdgeQueuer=%s TracedEdgeWriter=%s EdgeFlusher=%s FrameSink=%s ContextFrameSink=%s Detector=%s Endpoint=%s BatchClient=%s",
		has(ts), has(eq), has(teq), has(tew), has(ef), has(fs), has(cfs), has(det), has(ep), has(bc))
}

// checkWrappers asserts that every traced wrapper implements exactly the
// optional interfaces of the value it wraps.
func checkWrappers() error {
	pairs := []struct {
		name             string
		wrapped, wrapper any
	}{
		{"BatchWriter", (*trajstore.BatchWriter)(nil), tracedTrajSink{}},
		{"trajstore.Client", (*trajstore.Client)(nil), tracedBatchClient{}},
		{"MultiClient", (*framestore.MultiClient)(nil), tracedFrameSink{}},
		{"SimDetector", (*vision.SimDetector)(nil), tracedDetector{}},
		{"TCP endpoint", (*transport.TCP)(nil), tracedEndpoint{}},
	}
	for _, p := range pairs {
		want, got := capabilities(p.wrapped), capabilities(p.wrapper)
		if p.name == "trajstore.Client" {
			// The client itself also offers the synchronous TrajStore
			// surface; the BatchWriter only reaches it as a BatchClient,
			// which is all the wrapper forwards.
			want = capabilities(struct{ trajstore.BatchClient }{})
		}
		if want != got {
			return fmt.Errorf("wrapper for %s changes capabilities:\n  wrapped %s\n  wrapper %s", p.name, want, got)
		}
	}
	return nil
}
