package serve

import (
	"context"
	"time"

	"fastcppr/cppr"
	"fastcppr/internal/faultinject"
	"fastcppr/internal/qerr"
)

// request is one query waiting in a batcher for its flush.
type request struct {
	q   cppr.Query
	enq time.Time
	// reply is buffered (capacity 1) so a flush never blocks on a
	// submitter that gave up waiting — the abandoned reply parks in the
	// buffer and is collected with the request.
	reply chan reply
}

// reply is the batcher's answer to one request, carrying the timing
// breakdown of the shared execution that served it.
type reply struct {
	res cppr.BatchResult
	// batchSize is the number of requests flushed together with this
	// one; > 1 means the request was coalesced.
	batchSize int
	// wait is the time the request spent queued in the batcher before
	// its flush dispatched.
	wait time.Duration
	// exec is the wall time of the ReportBatch call that served it.
	exec time.Duration
}

// batcher funnels concurrent single queries into Timer.ReportBatch
// without ever idling a request behind a timer. It is work-conserving:
// a request that finds no flush of its design in flight dispatches at
// once, together with whatever is already buffered. Requests that
// arrive while a flush runs coalesce into the next batch, which
// dispatches when an in-flight flush completes, when it holds maxBatch
// requests, or when its oldest request has waited maxWait behind the
// busy design, whichever comes first. Flushes run on their own
// goroutines so collection continues during execution. Coalescing
// happens inside ReportBatch itself — identical and K-mergeable queries
// in one flush share an execution unit — so the batcher's job is purely
// to get concurrent requests into the same call.
//
// Lifecycle invariant: every submitter holds a registry Handle for the
// duration of submit, and stop() runs only after the last Handle
// releases, so no submit can race a stop.
type batcher struct {
	timer    *cppr.Timer
	maxBatch int
	maxWait  time.Duration
	in       chan *request
	// flushed carries one token per completed flush to the collector.
	flushed chan struct{}
	stopped chan struct{}
	done    chan struct{} // collector exited; in-flight flushes tracked separately
}

func newBatcher(timer *cppr.Timer, maxBatch int, maxWait time.Duration) *batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	b := &batcher{
		timer:    timer,
		maxBatch: maxBatch,
		maxWait:  maxWait,
		in:       make(chan *request, 4*maxBatch),
		flushed:  make(chan struct{}),
		stopped:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.collect()
	return b
}

// stop terminates the collector and waits for it to exit. Per the
// lifecycle invariant there are no queued requests by the time stop is
// called; a flush still serving abandoned requests finishes on its own.
func (b *batcher) stop() {
	close(b.stopped)
	<-b.done
}

// submit enqueues q and waits for its reply or the context. On context
// expiry the request is abandoned: the flush still runs it (bounded by
// the query's own Timeout) and the reply is dropped into the buffered
// channel.
func (b *batcher) submit(ctx context.Context, q cppr.Query) (reply, error) {
	faultinject.Fire("serve.batcher.enqueue")
	r := &request{q: q, enq: time.Now(), reply: make(chan reply, 1)}
	select {
	case b.in <- r:
	case <-ctx.Done():
		return reply{}, qerr.FromContext(ctx)
	case <-b.stopped:
		return reply{}, qerr.ShuttingDown("design batcher stopped")
	}
	select {
	case rep := <-r.reply:
		return rep, nil
	case <-ctx.Done():
		return reply{}, qerr.FromContext(ctx)
	}
}

// collect is the batcher's collector loop. It owns the pending batch
// and the count of flushes in flight.
func (b *batcher) collect() {
	defer close(b.done)
	var (
		pending  []*request
		inflight int
		wait     *time.Timer
		waitC    <-chan time.Time // armed while pending waits behind a flush
	)
	dispatch := func() {
		// Top up from the buffer first: requests already enqueued would
		// otherwise miss this flush for want of a collector iteration.
	drain:
		for len(pending) < b.maxBatch {
			select {
			case r := <-b.in:
				pending = append(pending, r)
			default:
				break drain
			}
		}
		if wait != nil {
			wait.Stop()
			wait, waitC = nil, nil
		}
		inflight++
		go b.flush(pending)
		pending = nil
	}
	for {
		select {
		case r := <-b.in:
			pending = append(pending, r)
			switch {
			case inflight == 0 || len(pending) >= b.maxBatch:
				dispatch()
			case wait == nil:
				wait = time.NewTimer(b.maxWait - time.Since(r.enq))
				waitC = wait.C
			}
		case <-b.flushed:
			inflight--
			if len(pending) > 0 {
				dispatch()
			}
		case <-waitC:
			wait, waitC = nil, nil
			dispatch()
		case <-b.stopped:
			if wait != nil {
				wait.Stop()
			}
			return
		}
	}
}

// flush runs one batch through ReportBatch, hands the collector its
// completion token (dropped once the collector has exited), then
// delivers every reply. The token goes first so the next batch is
// already dispatching while this one's replies are written.
func (b *batcher) flush(batch []*request) {
	start := time.Now()
	results, err := b.run(batch)
	exec := time.Since(start)
	select {
	case b.flushed <- struct{}{}:
	case <-b.done:
	}
	for i, req := range batch {
		var res cppr.BatchResult
		if results != nil {
			res = results[i]
		}
		if res.Err == nil && err != nil {
			res.Err = err
		}
		req.reply <- reply{res: res, batchSize: len(batch), wait: start.Sub(req.enq), exec: exec}
	}
}

// run executes the batch's queries in one ReportBatch call. A panic in
// the dispatch path (fault injection, engine invariant) is contained
// here and returned as an *InternalError for every request, instead of
// the server losing its collector.
func (b *batcher) run(batch []*request) (results []cppr.BatchResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			results, err = nil, qerr.FromPanic("serve.batcher.flush", r)
		}
	}()
	faultinject.Fire("serve.batcher.flush")
	queries := make([]cppr.Query, len(batch))
	for i, req := range batch {
		queries[i] = req.q
	}
	// The batch context is deliberately background: each request's
	// deadline rides in as Query.Timeout, bounding its own execution
	// unit inside ReportBatch without cutting short its batchmates.
	return b.timer.ReportBatch(context.Background(), queries)
}
