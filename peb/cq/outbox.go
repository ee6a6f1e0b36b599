package cq

// Outbox is a subscription's consumer channel plus the one sender that
// fills it: bounded, never blocking, with the overflow policy applied at
// the moment the buffer is full. Both cq.Subscription and the sharded
// router's merged subscription deliver through it.
//
// An Outbox does no locking of its own. Its owner calls Send and Close
// under one mutex (the engine's, or the sharded subscription's); the
// consumer side needs none.
type Outbox struct {
	ch     chan Delta
	policy OverflowPolicy
	// pending counts the deltas evicted since the last successful send;
	// the next delivered delta reports it in Delta.Dropped.
	pending int
	closed  bool
}

// NewOutbox allocates the consumer channel opt describes.
func NewOutbox(opt SubOptions) *Outbox {
	return &Outbox{ch: make(chan Delta, opt.buffer()), policy: opt.Overflow}
}

// C returns the consumer's end of the channel.
func (b *Outbox) C() <-chan Delta { return b.ch }

// Send enqueues d without blocking. lost is the number of deltas discarded
// to do so: evicted heads under DropOldest, d itself under Cancel. ok is
// false when the outbox is closed — before the call, or by it: a Cancel
// overflow closes the channel (what is buffered stays readable) and the
// owner ends the subscription with ErrSlowConsumer.
func (b *Outbox) Send(d Delta) (lost int, ok bool) {
	if b.closed {
		return 0, false
	}
	for {
		d.Dropped = b.pending
		select {
		case b.ch <- d:
			b.pending = 0
			return lost, true
		default:
		}
		if b.policy == Cancel {
			b.Close()
			return lost + 1, false
		}
		// DropOldest: evict the head and retry. The consumer may race us
		// and drain the channel first — then the eviction no-ops and the
		// retry succeeds.
		select {
		case old := <-b.ch:
			b.pending += 1 + old.Dropped
			lost++
		default:
		}
	}
}

// Close closes the channel; deltas already buffered stay readable.
// Idempotent.
func (b *Outbox) Close() {
	if !b.closed {
		b.closed = true
		close(b.ch)
	}
}
