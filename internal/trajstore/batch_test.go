package trajstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/protocol"
)

func TestApplyBatchMixed(t *testing.T) {
	s := NewMemStore()
	a, err := s.AddVertex(event("cam#pre"))
	if err != nil {
		t.Fatal(err)
	}
	// Vertices first: edge records must reference already-known IDs, so a
	// client naturally runs two batches.
	ids, errs, err := s.ApplyBatch([]protocol.TrajWrite{
		protocol.VertexWrite(event("cam#b1")),
		protocol.VertexWrite(event("cam#b2")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("vertex errs = %v", errs)
	}
	if ids[0] == 0 || ids[1] == 0 || ids[0] == ids[1] {
		t.Fatalf("vertex ids = %v", ids)
	}

	second := []protocol.TrajWrite{
		protocol.EdgeWrite(a, ids[0], 0.1),
		protocol.EdgeWrite(a, 999, 0.1),
		{Kind: protocol.TrajWriteVertex},
		{Kind: "bogus"},
		protocol.EdgeWrite(ids[0], ids[1], 0.2),
	}
	ids2, errs2, err := s.ApplyBatch(second)
	if err != nil {
		t.Fatal(err)
	}
	if errs2[0] != nil || errs2[4] != nil {
		t.Fatalf("accepted records errored: %v", errs2)
	}
	if !errors.Is(errs2[1], ErrVertexNotFound) {
		t.Errorf("missing target: %v", errs2[1])
	}
	if errs2[2] == nil || errs2[3] == nil {
		t.Errorf("malformed records accepted: %v", errs2)
	}
	if ids2[0] != 0 || ids2[4] != 0 {
		t.Errorf("edge records must not allocate ids: %v", ids2)
	}
	if s.NumVertices() != 3 || s.NumEdges() != 2 {
		t.Errorf("counts %d/%d", s.NumVertices(), s.NumEdges())
	}
}

func TestApplyBatchEmpty(t *testing.T) {
	s := NewMemStore()
	ids, errs, err := s.ApplyBatch(nil)
	if err != nil || ids != nil || errs != nil {
		t.Fatalf("empty batch: %v %v %v", ids, errs, err)
	}
}

func TestApplyBatchPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, err := s.ApplyBatch([]protocol.TrajWrite{
		protocol.VertexWrite(event("cam#1")),
		protocol.VertexWrite(event("cam#2")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ApplyBatch([]protocol.TrajWrite{
		protocol.EdgeWrite(ids[0], ids[1], 0.3),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	if s2.NumVertices() != 2 || s2.NumEdges() != 1 {
		t.Errorf("reopened counts %d/%d", s2.NumVertices(), s2.NumEdges())
	}
	out := s2.OutEdges(ids[0])
	if len(out) != 1 || out[0].To != ids[1] || out[0].Weight != 0.3 {
		t.Errorf("edge = %+v", out)
	}
}

// TestGroupCommitGroupsConcurrentWriters proves the WAL committer batches
// records from concurrent writers into fewer flushes than records.
func TestGroupCommitGroupsConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWithConfig(dir, StoreConfig{GroupCommitWindow: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := s.AddVertex(event(fmt.Sprintf("cam%d#%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.WALStats()
	if st.Records != writers*perWriter {
		t.Fatalf("records = %d, want %d", st.Records, writers*perWriter)
	}
	if st.GroupCommits >= st.Records {
		t.Errorf("group commits %d not fewer than records %d: no grouping happened", st.GroupCommits, st.Records)
	}
	if s.NumVertices() != writers*perWriter {
		t.Errorf("vertices = %d", s.NumVertices())
	}
}

// TestFsyncDurabilityOfAcknowledgedWrites copies the data directory the
// instant every write has been acknowledged — without closing the store,
// simulating a machine losing the process — and proves a store opened
// from the copy holds every acknowledged write.
func TestFsyncDurabilityOfAcknowledgedWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWithConfig(dir, StoreConfig{Fsync: true, GroupCommitWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := s.AddVertex(event(fmt.Sprintf("cam%d#%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.WALStats(); st.Syncs == 0 {
		t.Fatal("no fsyncs recorded under Fsync config")
	}

	// Simulate the crash: snapshot the on-disk state with the store still
	// open (nothing flushed by Close), then open a fresh store from it.
	crashDir := t.TempDir()
	for _, name := range []string{walFileName, snapshotFileName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.Close()

	s2, err := Open(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	if got := s2.NumVertices(); got != writers*perWriter {
		t.Errorf("recovered %d vertices, want %d: acknowledged writes lost", got, writers*perWriter)
	}
}

// TestCrashDuringCompactNoDuplicateEdges reproduces the compaction crash
// window: the snapshot is installed but the process dies before the WAL
// is truncated, so restart replays a WAL whose contents are already in
// the snapshot. Edge replay must be idempotent or weights silently skew.
func TestCrashDuringCompactNoDuplicateEdges(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.AddVertex(event("cam#1"))
	b, _ := s.AddVertex(event("cam#2"))
	c, _ := s.AddVertex(event("cam#3"))
	if err := s.AddEdge(a, b, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(b, c, 0.2); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walFileName)
	preCompactWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(preCompactWAL) == 0 {
		t.Fatal("wal empty before compact; test setup broken")
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash simulation: the snapshot landed but the WAL truncation did
	// not — put the stale pre-compact WAL back.
	if err := os.WriteFile(walPath, preCompactWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	if s2.NumVertices() != 3 {
		t.Errorf("vertices = %d, want 3", s2.NumVertices())
	}
	if s2.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2: stale WAL replay duplicated edges", s2.NumEdges())
	}
	if out := s2.OutEdges(a); len(out) != 1 || out[0].Weight != 0.1 {
		t.Errorf("a's out edges = %+v", out)
	}
}

// TestTornWALTailTruncated proves a partial final record (a torn write
// from a crash) is truncated away with the good prefix kept, counted in
// WALStats, and that the store keeps appending cleanly afterwards.
func TestTornWALTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddVertex(event("cam#1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddVertex(event("cam#2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"v","vertex":{"id":3,`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	if s2.NumVertices() != 2 {
		t.Errorf("vertices = %d, want 2", s2.NumVertices())
	}
	if st := s2.WALStats(); st.TailTruncations != 1 {
		t.Errorf("tail truncations = %d, want 1", st.TailTruncations)
	}
	if _, err := s2.AddVertex(event("cam#3")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s3.Close() }()
	if s3.NumVertices() != 3 {
		t.Errorf("after append past truncation: vertices = %d, want 3", s3.NumVertices())
	}
}

// TestMidFileWALCorruptionRefusesOpen proves damage followed by intact
// records — corruption at rest, not a torn tail — fails the open instead
// of silently dropping acknowledged writes.
func TestMidFileWALCorruptionRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.AddVertex(event(fmt.Sprintf("cam#%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Smash bytes in the first record, leaving later records intact.
	copy(data[2:8], []byte("######"))
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("open = %v, want ErrWALCorrupt", err)
	}
}

func TestClientAddBatchRoundTrip(t *testing.T) {
	srv, err := Serve(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()

	ids, errs, err := cl.AddBatch([]protocol.TrajWrite{
		protocol.VertexWrite(event("cam#1")),
		protocol.VertexWrite(event("cam#2")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("errs = %v", errs)
	}
	ids2, errs2, err := cl.AddBatch([]protocol.TrajWrite{
		protocol.EdgeWrite(ids[0], ids[1], 0.25),
		protocol.EdgeWrite(ids[0], 999, 0.25),
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs2[0] != nil {
		t.Errorf("good edge rejected: %v", errs2[0])
	}
	if errs2[1] == nil {
		t.Error("missing-target edge accepted")
	}
	if ids2[0] != 0 {
		t.Errorf("edge allocated id %d", ids2[0])
	}
	if _, _, err := cl.AddBatch(nil); err == nil {
		t.Error("empty batch must be rejected by the server")
	}
}

// fakeBatchClient scripts AddBatchContext outcomes for BatchWriter tests.
type fakeBatchClient struct {
	mu        sync.Mutex
	calls     int
	failFirst int                    // transport-fail this many leading calls
	recErr    error                  // per-record error applied to every record
	hook      func(call int)         // if set, runs at the start of each call, unlocked
	got       [][]protocol.TrajWrite // delivered batches
	tried     []triedBatch           // every call, failed ones included
}

type triedBatch struct {
	at     time.Time
	writes []protocol.TrajWrite
}

func (f *fakeBatchClient) AddVertexContext(ctx context.Context, e protocol.DetectionEvent) (int64, error) {
	return 1, nil
}

func (f *fakeBatchClient) AddBatchContext(ctx context.Context, writes []protocol.TrajWrite) ([]int64, []error, error) {
	cp := append([]protocol.TrajWrite(nil), writes...)
	f.mu.Lock()
	f.calls++
	call := f.calls
	f.tried = append(f.tried, triedBatch{at: time.Now(), writes: cp})
	f.mu.Unlock()
	if f.hook != nil {
		f.hook(call)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if call <= f.failFirst {
		return nil, nil, errors.New("transport down")
	}
	f.got = append(f.got, cp)
	errs := make([]error, len(writes))
	for i := range errs {
		errs[i] = f.recErr
	}
	return make([]int64, len(writes)), errs, nil
}

func (f *fakeBatchClient) delivered() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, b := range f.got {
		n += len(b)
	}
	return n
}

func TestBatchWriterFlushesOnClose(t *testing.T) {
	fc := &fakeBatchClient{}
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 100})
	var mu sync.Mutex
	var results []error
	for i := 0; i < 10; i++ {
		w.QueueEdge(int64(i), int64(i+1), 0.1, func(err error) {
			mu.Lock()
			results = append(results, err)
			mu.Unlock()
		})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if fc.delivered() != 10 {
		t.Errorf("delivered %d edges, want 10", fc.delivered())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(results) != 10 {
		t.Fatalf("callbacks = %d, want 10", len(results))
	}
	for _, err := range results {
		if err != nil {
			t.Errorf("edge result: %v", err)
		}
	}
}

func TestBatchWriterRetriesTransportErrors(t *testing.T) {
	fc := &fakeBatchClient{failFirst: 2}
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 4, MaxRetries: 3})
	errCh := make(chan error, 1)
	w.QueueEdge(1, 2, 0.1, func(err error) { errCh <- err })
	if err := w.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Errorf("edge should succeed after retries: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchWriterSurfacesExhaustedRetries(t *testing.T) {
	fc := &fakeBatchClient{failFirst: 100}
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 4, MaxRetries: 1})
	errCh := make(chan error, 1)
	w.QueueEdge(1, 2, 0.1, func(err error) { errCh <- err })
	if err := w.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Error("exhausted retries must surface the transport error")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchWriterSurfacesPerRecordErrors(t *testing.T) {
	recErr := errors.New("edge exists")
	fc := &fakeBatchClient{recErr: recErr}
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 4})
	err := w.AddEdge(1, 2, 0.1)
	if !errors.Is(err, recErr) {
		t.Errorf("AddEdge = %v, want scripted per-record error", err)
	}
	// Per-record errors are terminal: exactly one delivery attempt.
	if fc.delivered() != 1 {
		t.Errorf("delivered %d, want 1 (no retry of server-side rejections)", fc.delivered())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchWriterQueueAfterCloseFails(t *testing.T) {
	fc := &fakeBatchClient{}
	w := NewBatchWriter(fc, BatchWriterConfig{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	w.QueueEdge(1, 2, 0.1, func(err error) { errCh <- err })
	if err := <-errCh; !errors.Is(err, ErrWriterClosed) {
		t.Errorf("queue after close = %v, want ErrWriterClosed", err)
	}
}

func TestBatchWriterSizeTrigger(t *testing.T) {
	fc := &fakeBatchClient{}
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 4})
	defer func() { _ = w.Close() }()
	var wg sync.WaitGroup
	wg.Add(8)
	for i := 0; i < 8; i++ {
		w.QueueEdge(int64(i), int64(i+1), 0.1, func(error) { wg.Done() })
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the flusher never delivered the queued edges")
	}
}

// TestBatchWriterCoalescesWhileInFlight pins the send-when-idle rule: the
// first edge goes out alone at once, and edges queued while that RPC is in
// flight go out together as soon as it returns, split at MaxBatch.
func TestBatchWriterCoalescesWhileInFlight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	fc := &fakeBatchClient{hook: func(call int) {
		if call == 1 {
			close(entered)
			<-release
		}
	}}
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 4})
	defer func() { _ = w.Close() }()
	var wg sync.WaitGroup
	wg.Add(7)
	w.QueueEdge(0, 1, 0.1, func(error) { wg.Done() })
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("a lone queued edge was never sent")
	}
	for i := int64(1); i <= 6; i++ {
		w.QueueEdge(i, i+1, 0.1, func(error) { wg.Done() })
	}
	close(release)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("edges queued during the in-flight batch were never sent")
	}

	fc.mu.Lock()
	defer fc.mu.Unlock()
	want := [][]int64{{0}, {1, 2, 3, 4}, {5, 6}}
	if len(fc.got) != len(want) {
		t.Fatalf("got %d batches, want %d: %v", len(fc.got), len(want), fc.got)
	}
	for b, batch := range fc.got {
		if len(batch) != len(want[b]) {
			t.Fatalf("batch %d has %d edges, want %v", b, len(batch), want[b])
		}
		for i, wr := range batch {
			if wr.From != want[b][i] {
				t.Errorf("batch %d edge %d from %d, want %d", b, i, wr.From, want[b][i])
			}
		}
	}
}

// TestBatchWriterSendsLoneEdgesAtOnce asserts an idle writer does not
// hold a queued edge back: twenty edges queued one at a time, each after
// the previous one was acknowledged, finish far sooner than twenty waits
// on any batching window would allow.
func TestBatchWriterSendsLoneEdgesAtOnce(t *testing.T) {
	const edges = 20
	fc := &fakeBatchClient{}
	w := NewBatchWriter(fc, BatchWriterConfig{})
	defer func() { _ = w.Close() }()
	start := time.Now()
	for i := int64(0); i < edges; i++ {
		acked := make(chan error, 1)
		w.QueueEdge(i, i+1, 0.1, func(err error) { acked <- err })
		select {
		case err := <-acked:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("edge %d was never sent", i)
		}
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Errorf("%d sequential lone edges took %v; the writer is holding edges back", edges, took)
	}
}

// TestBatchWriterBacksOffAfterTransportFailure asserts a dead server is
// not hammered: each edge makes exactly MaxRetries+1 attempts, and the
// background flusher spaces them by retryBackoff.
func TestBatchWriterBacksOffAfterTransportFailure(t *testing.T) {
	const retries, edges = 2, 3
	fc := &fakeBatchClient{failFirst: 1 << 30}
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 4, MaxRetries: retries})
	defer func() { _ = w.Close() }()
	errs := make(chan error, edges)
	for i := int64(0); i < edges; i++ {
		w.QueueEdge(i, i+1, 0.1, func(err error) { errs <- err })
	}
	for i := 0; i < edges; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("an edge that was never delivered reported success")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("exhausted edges never had their callbacks invoked")
		}
	}

	fc.mu.Lock()
	defer fc.mu.Unlock()
	attempts := make(map[int64][]time.Time)
	for _, tb := range fc.tried {
		for _, wr := range tb.writes {
			attempts[wr.From] = append(attempts[wr.From], tb.at)
		}
	}
	for from := int64(0); from < edges; from++ {
		at := attempts[from]
		if len(at) != retries+1 {
			t.Errorf("edge %d made %d attempts, want %d", from, len(at), retries+1)
		}
		for i := 1; i < len(at); i++ {
			if gap := at[i].Sub(at[i-1]); gap < retryBackoff {
				t.Errorf("edge %d retried after %v, want at least %v", from, gap, retryBackoff)
			}
		}
	}
}

// TestBatchWriterConcurrentQueueAndClose races many producers against
// Close, which starts once twenty batch RPCs have gone out. Early
// transport failures and a small MaxBatch drive producers into retries and
// inline flushes: every done callback must fire exactly once, whether the
// edge was delivered, exhausted or refused as closed.
func TestBatchWriterConcurrentQueueAndClose(t *testing.T) {
	const producers, perProducer = 8, 200
	busy := make(chan struct{})
	fc := &fakeBatchClient{failFirst: 3, hook: func(call int) {
		if call == 20 {
			close(busy)
		}
	}}
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 2})
	var fired [producers * perProducer]atomic.Int32
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				k := p*perProducer + i
				w.QueueEdge(int64(k), int64(k+1), 0.1, func(error) { fired[k].Add(1) })
			}
		}(p)
	}
	select {
	case <-busy:
	case <-time.After(5 * time.Second):
		t.Fatal("the writer never sent twenty batches")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	for k := range fired {
		if n := fired[k].Load(); n != 1 {
			t.Errorf("edge %d: done fired %d times, want 1", k, n)
		}
	}
}
