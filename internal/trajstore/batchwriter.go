package trajstore

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/protocol"
)

// BatchClient is the slice of the trajstore client surface BatchWriter
// needs: the batch RPC plus the synchronous single-record ops it proxies
// through unchanged.
type BatchClient interface {
	AddVertexContext(ctx context.Context, e protocol.DetectionEvent) (int64, error)
	AddBatchContext(ctx context.Context, writes []protocol.TrajWrite) ([]int64, []error, error)
}

// BatchWriterConfig tunes the client-side edge write buffer.
type BatchWriterConfig struct {
	// MaxBatch caps how many queued edges one batch RPC carries.
	// Default 64.
	MaxBatch int
	// MaxRetries bounds how many times a transport-failed edge is
	// re-queued before its error is surfaced to the done callback.
	// Server-side per-record rejections are terminal and never retried.
	// Default 2.
	MaxRetries int
	// FlushTimeout bounds each batch RPC. Default 5s.
	FlushTimeout time.Duration
}

func (c BatchWriterConfig) withDefaults() BatchWriterConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.FlushTimeout <= 0 {
		c.FlushTimeout = 5 * time.Second
	}
	return c
}

// retryBackoff is how long the background flusher waits after a transport
// failure before resending, so a dead server is not hammered.
const retryBackoff = 50 * time.Millisecond

// ErrWriterClosed is returned to done callbacks for edges still queued
// when the BatchWriter is closed and the final drain fails, and by
// QueueEdge calls after Close.
var ErrWriterClosed = errors.New("trajstore: batch writer closed")

type queuedEdge struct {
	from, to int64
	weight   float64
	trace    *protocol.TraceContext
	done     func(error)
	attempts int
}

// BatchWriter buffers edge inserts client-side and sends them through the
// add_batch RPC whenever its flusher is idle: a queued edge goes out at
// once, and edges queued while a batch is in flight ride the next one, so
// batches grow with load and no edge waits on a timer. Vertex inserts pass
// through synchronously (their IDs gate downstream work) but still ride the
// server's group commit under load. Each queued edge carries an optional
// done callback that receives the edge's final error — nil on success,
// the server's rejection for per-record failures, or the last transport
// error once retries are exhausted — which is how camnode keeps its
// send_errors accounting exact over the async path.
type BatchWriter struct {
	cl  BatchClient
	cfg BatchWriterConfig

	mu      sync.Mutex
	queue   []queuedEdge
	closed  bool
	lastErr error // most recent transport-level flush failure, nil after a clean flush

	// flushMu serializes flushes so retried edges cannot be reordered
	// around a concurrent flush of newer edges' results.
	flushMu sync.Mutex

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// NewBatchWriter wraps cl with a buffered edge write path.
func NewBatchWriter(cl BatchClient, cfg BatchWriterConfig) *BatchWriter {
	w := &BatchWriter{
		cl:   cl,
		cfg:  cfg.withDefaults(),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go w.run()
	return w
}

// AddVertexContext proxies the synchronous vertex insert.
func (w *BatchWriter) AddVertexContext(ctx context.Context, e protocol.DetectionEvent) (int64, error) {
	return w.cl.AddVertexContext(ctx, e)
}

// AddVertex proxies the synchronous vertex insert with the client's
// default timeout.
func (w *BatchWriter) AddVertex(e protocol.DetectionEvent) (int64, error) {
	return w.cl.AddVertexContext(context.Background(), e)
}

// QueueEdge enqueues an edge insert for asynchronous delivery. done (may
// be nil) is invoked exactly once with the edge's final error. If the
// queue is far over MaxBatch the caller is backpressured into
// flushing inline rather than growing the buffer without bound.
func (w *BatchWriter) QueueEdge(from, to int64, weight float64, done func(error)) {
	w.queueEdge(queuedEdge{from: from, to: to, weight: weight, done: done})
}

// QueueEdgeTraced is QueueEdge carrying the writer's trace context; it
// rides the batch record to the server, which records the WAL group
// commit as part of the caller's trace.
func (w *BatchWriter) QueueEdgeTraced(from, to int64, weight float64, tc protocol.TraceContext, done func(error)) {
	w.queueEdge(queuedEdge{from: from, to: to, weight: weight, trace: &tc, done: done})
}

func (w *BatchWriter) queueEdge(qe queuedEdge) {
	done := qe.done
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		if done != nil {
			done(ErrWriterClosed)
		}
		return
	}
	w.queue = append(w.queue, qe)
	n := len(w.queue)
	w.mu.Unlock()

	if n >= w.cfg.MaxBatch*16 {
		// Producer is far ahead of the flusher: absorb the cost inline.
		w.flushOnce(context.Background())
		return
	}
	w.wake()
}

// wake nudges the background flusher; kicks coalesce while it is busy.
func (w *BatchWriter) wake() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// AddEdge queues the edge and blocks until its final result, giving
// callers that need synchronous semantics the batched wire format.
func (w *BatchWriter) AddEdge(from, to int64, weight float64) error {
	ch := make(chan error, 1)
	w.QueueEdge(from, to, weight, func(err error) { ch <- err })
	// Every queued edge's done callback is invoked exactly once — by a
	// flush, by retry exhaustion, or by Close's fail-closed drain — so
	// this receive always terminates.
	return <-ch
}

// Flush delivers every currently queued edge, looping until the queue is
// empty or ctx expires. It terminates because each edge's attempts are
// bounded by MaxRetries.
func (w *BatchWriter) Flush(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.pending() == 0 {
			return nil
		}
		w.flushOnce(ctx)
	}
}

func (w *BatchWriter) pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.queue)
}

// Err reports the most recent transport-level flush failure, or nil if
// the last flush delivered its batch — a cheap health signal: a node
// whose writer keeps failing is serving but cannot commit edges.
func (w *BatchWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastErr
}

// Close drains the queue and stops the background flusher. Edges that
// still cannot be delivered get their done callbacks invoked with the
// final error.
func (w *BatchWriter) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return nil
	}
	w.closed = true
	w.mu.Unlock()

	close(w.stop)
	<-w.done

	ctx, cancel := context.WithTimeout(context.Background(), w.cfg.FlushTimeout)
	defer cancel()
	err := w.Flush(ctx)

	// Anything still queued (context expired mid-drain, or requeued by an
	// in-flight inline flush, which flushMu waits out) fails closed.
	w.flushMu.Lock()
	w.mu.Lock()
	rest := w.queue
	w.queue = nil
	w.mu.Unlock()
	w.flushMu.Unlock()
	for _, qe := range rest {
		if qe.done != nil {
			qe.done(ErrWriterClosed)
		}
	}
	return err
}

// run is the background flusher: one batch per kick, re-kicking itself
// while edges remain queued and pausing after a transport failure.
func (w *BatchWriter) run() {
	defer close(w.done)
	for {
		select {
		case <-w.stop:
			return
		case <-w.kick:
		}
		if w.flushOnce(context.Background()) != nil {
			select {
			case <-w.stop:
				return
			case <-time.After(retryBackoff):
			}
		}
		if w.pending() > 0 {
			w.wake()
		}
	}
}

// flushOnce sends one batch of queued edges and returns the transport
// error, if any. Transport failures re-queue the whole batch (attempts++)
// until MaxRetries; per-record server rejections are terminal.
func (w *BatchWriter) flushOnce(ctx context.Context) error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()

	w.mu.Lock()
	if len(w.queue) == 0 {
		w.mu.Unlock()
		return nil
	}
	n := len(w.queue)
	if n > w.cfg.MaxBatch {
		n = w.cfg.MaxBatch
	}
	batch := make([]queuedEdge, n)
	copy(batch, w.queue[:n])
	w.queue = append(w.queue[:0], w.queue[n:]...)
	w.mu.Unlock()

	writes := make([]protocol.TrajWrite, len(batch))
	for i, qe := range batch {
		wr := protocol.EdgeWrite(qe.from, qe.to, qe.weight)
		wr.Trace = qe.trace
		writes[i] = wr
	}

	rpcCtx, cancel := context.WithTimeout(ctx, w.cfg.FlushTimeout)
	_, errs, err := w.cl.AddBatchContext(rpcCtx, writes)
	cancel()

	w.mu.Lock()
	w.lastErr = err
	w.mu.Unlock()

	if err != nil {
		// Transport-level failure: every edge in the batch is undelivered.
		var requeue []queuedEdge
		for _, qe := range batch {
			qe.attempts++
			if qe.attempts > w.cfg.MaxRetries {
				if qe.done != nil {
					qe.done(err)
				}
				continue
			}
			requeue = append(requeue, qe)
		}
		if len(requeue) > 0 {
			w.mu.Lock()
			w.queue = append(requeue, w.queue...)
			w.mu.Unlock()
		}
		return err
	}
	for i, qe := range batch {
		var recErr error
		if i < len(errs) {
			recErr = errs[i]
		}
		if qe.done != nil {
			qe.done(recErr)
		}
	}
	return nil
}
