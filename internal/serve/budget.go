package serve

import (
	"context"
	"sync"
)

// Budget is the global speculation budget: a token pool bounding the
// number of live speculative worlds machine-wide. One token stands for
// one spawned alternative; a wave acquires its tokens before RunAlt
// spawns and releases them after the block's siblings are eliminated,
// so the live-speculative-world gauge can never exceed the capacity.
//
// Acquisition is "at least one, greedily more": a job blocks until it
// holds one token (its historically-fastest alternative always runs —
// starving a job entirely would turn throttling into livelock) and
// then takes whatever else is free up to its degree cap, without
// blocking. Under contention jobs therefore degrade gracefully toward
// sequential execution instead of queueing for full-width waves.
//
// The capacity is fixed at construction: Config.SpecTokens, one token
// per core unless the operator names a number.
type Budget struct {
	tokens chan struct{} // cap = capacity; len = free tokens

	mu        sync.Mutex
	inUse     int
	highWater int
	waits     int64
}

// NewBudget returns a budget with the given token capacity (minimum 1).
func NewBudget(capacity int) *Budget {
	capacity = max(1, capacity)
	b := &Budget{tokens: make(chan struct{}, capacity)}
	for i := 0; i < capacity; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// Acquire obtains between 1 and want tokens: it blocks for the first
// (honouring ctx) and greedily takes up to want-1 more without
// blocking. It returns the number obtained, or 0 with ctx.Err() when
// the context ended first. want < 1 is treated as 1.
func (b *Budget) Acquire(ctx context.Context, want int) (int, error) {
	if want < 1 {
		want = 1
	}
	select {
	case <-b.tokens:
	default:
		// The pool is exhausted: this acquisition actually throttles.
		b.mu.Lock()
		b.waits++
		b.mu.Unlock()
		select {
		case <-b.tokens:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	got := 1
	for got < want {
		select {
		case <-b.tokens:
			got++
		default:
			b.note(got)
			return got, nil
		}
	}
	b.note(got)
	return got, nil
}

// note records an acquisition of n tokens in the gauges.
func (b *Budget) note(n int) {
	b.mu.Lock()
	b.inUse += n
	if b.inUse > b.highWater {
		b.highWater = b.inUse
	}
	b.mu.Unlock()
}

// Release returns n tokens to the pool.
func (b *Budget) Release(n int) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	b.inUse -= n
	b.mu.Unlock()
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
}

// Capacity returns the pool size.
func (b *Budget) Capacity() int { return cap(b.tokens) }

// InUse returns the tokens currently held.
func (b *Budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inUse
}

// HighWater returns the maximum tokens ever held at once.
func (b *Budget) HighWater() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.highWater
}

// Waits returns how many acquisitions found the pool exhausted and had
// to block — the admission gate actually throttling speculation.
func (b *Budget) Waits() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.waits
}
