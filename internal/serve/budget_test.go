package serve

import (
	"context"
	"testing"
	"time"
)

func TestBudgetGreedyAcquire(t *testing.T) {
	b := NewBudget(4)
	got, err := b.Acquire(context.Background(), 3)
	if err != nil || got != 3 {
		t.Fatalf("Acquire(3) = %d, %v; want 3, nil", got, err)
	}
	// Only one token left: a want-of-3 degrades to 1 without blocking.
	got, err = b.Acquire(context.Background(), 3)
	if err != nil || got != 1 {
		t.Fatalf("Acquire(3) on near-empty pool = %d, %v; want 1, nil", got, err)
	}
	if in := b.InUse(); in != 4 {
		t.Fatalf("InUse = %d, want 4", in)
	}
	if hw := b.HighWater(); hw != 4 {
		t.Fatalf("HighWater = %d, want 4", hw)
	}
	b.Release(4)
	if in := b.InUse(); in != 0 {
		t.Fatalf("InUse after release = %d, want 0", in)
	}
}

func TestBudgetBlocksWhenExhausted(t *testing.T) {
	b := NewBudget(1)
	if _, err := b.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan int)
	go func() {
		n, err := b.Acquire(context.Background(), 2)
		if err != nil {
			t.Error(err)
		}
		acquired <- n
	}()
	select {
	case n := <-acquired:
		t.Fatalf("second Acquire returned %d tokens before any release", n)
	case <-time.After(20 * time.Millisecond):
	}
	b.Release(1)
	select {
	case n := <-acquired:
		if n != 1 {
			t.Fatalf("blocked Acquire got %d tokens, want 1", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire still blocked after release")
	}
	if b.Waits() == 0 {
		t.Fatal("Waits = 0; the blocked acquisition was not counted")
	}
}

func TestBudgetAcquireHonoursContext(t *testing.T) {
	b := NewBudget(1)
	if _, err := b.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	got, err := b.Acquire(ctx, 1)
	if got != 0 || err == nil {
		t.Fatalf("Acquire on exhausted pool with expiring ctx = %d, %v; want 0, error", got, err)
	}
}

func TestBudgetMinimumCapacity(t *testing.T) {
	b := NewBudget(0)
	if b.Capacity() != 1 {
		t.Fatalf("Capacity = %d, want 1", b.Capacity())
	}
}
