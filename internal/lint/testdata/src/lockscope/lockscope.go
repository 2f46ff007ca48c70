// Package lockscope seeds positive and negative cases for the lockscope
// analyzer: channel operations, sleeps, waits, single-flight Do calls, and
// function-value calls under a held mutex are flagged; the unlock-then-block
// branch shape (memo.Map.Do) and sync.Cond.Wait are not.
package lockscope

import (
	"context"
	"sync"
	"time"
)

type Group struct {
	mu sync.Mutex
	m  map[string]chan struct{}
	cb func()
}

func (g *Group) SendLocked(ch chan int) {
	g.mu.Lock()
	ch <- 1 // want `channel send`
	g.mu.Unlock()
}

func (g *Group) SendUnlocked(ch chan int) {
	g.mu.Lock()
	g.mu.Unlock()
	ch <- 1 // lock already released; not flagged
}

func (g *Group) RecvDeferred(ch chan int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return <-ch // want `channel receive`
}

func (g *Group) SelectLocked(ch chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select { // want `select while`
	case <-ch:
	default:
	}
}

func (g *Group) CallbackLocked() {
	g.mu.Lock()
	g.cb() // want `function value`
	g.mu.Unlock()
}

func (g *Group) CallbackUnlocked() {
	g.mu.Lock()
	cb := g.cb
	g.mu.Unlock()
	cb() // snapshot-then-call outside the lock; not flagged
}

func (g *Group) SleepLocked() {
	g.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep`
	g.mu.Unlock()
}

func (g *Group) WaitLocked(wg *sync.WaitGroup) {
	g.mu.Lock()
	defer g.mu.Unlock()
	wg.Wait() // want `Wait while`
}

func (g *Group) CondWaitOK(c *sync.Cond) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.m == nil {
		c.Wait() // Cond.Wait releases its locker by contract; not flagged
	}
}

// DoStyle mirrors memo.Map.Do: the blocking receive happens only on the
// branch that released the lock first, and compute runs after the unlock.
func (g *Group) DoStyle(key string, compute func()) {
	g.mu.Lock()
	if ch, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-ch // this path unlocked above; not flagged
		return
	}
	ch := make(chan struct{})
	g.m[key] = ch
	g.mu.Unlock()
	compute() // lock released on this path too; not flagged
	close(ch)
}

func (g *Group) GoroutineOK(ch chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	go func() {
		ch <- 1 // runs in another goroutine; not flagged here
	}()
}

type Flight struct{}

func (f *Flight) Do(ctx context.Context, key string) error { return ctx.Err() }

func (g *Group) FlightLocked(ctx context.Context, f *Flight) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return f.Do(ctx, "k") // want `serializes`
}

func (g *Group) FlightUnlocked(ctx context.Context, f *Flight) error {
	g.mu.Lock()
	g.mu.Unlock()
	return f.Do(ctx, "k") // lock released; not flagged
}

// Memo has memo.Map's generic receiver and Do signature.
type Memo[K comparable, V any] struct{}

func (m *Memo[K, V]) Do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	return compute()
}

func (g *Group) MemoLocked(ctx context.Context, m *Memo[string, int]) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return m.Do(ctx, "k", func() (int, error) { return 1, nil }) // want `Memo.Do while g.mu is held serializes`
}

func (g *Group) MemoUnlocked(ctx context.Context, m *Memo[string, int]) (int, error) {
	g.mu.Lock()
	g.mu.Unlock()
	return m.Do(ctx, "k", func() (int, error) { return 1, nil }) // lock released; not flagged
}

type Reg struct {
	mu sync.RWMutex
	ch chan int
}

func (r *Reg) ReadSend() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.ch <- 1 // want `channel send`
}

func (r *Reg) ReadOnly() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ch) // pure read under RLock; not flagged
}
