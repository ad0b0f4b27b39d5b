package rtether

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// netLock is the Network's reader/writer lock with one twist: it is
// reentrant for the goroutine running a Network.Schedule callback.
// Callbacks fire inside the engine-stepping write paths (RunFor,
// RunUntil, the star's Establish wire handshake) — on the driving
// goroutine, with the write lock held — and are allowed to call back
// into the Network (query metrics, establish or release channels, run a
// nested RunFor); a plain RWMutex would self-deadlock there.
//
// owner is armed only by the wrapper Schedule puts around a callback:
// the first callback to fire during a write-lock hold records the
// driving goroutine's ID, and the unlock that really releases the hold
// clears it. Callbacks only ever run under the write lock, so only its
// holder arms owner and a non-zero value it finds is its own (a nested
// run's callbacks included). Outside a callback owner is 0 and every
// acquisition is one atomic load on top of the RWMutex; while one runs,
// contending goroutines pay one goid() before they block on mu.
type netLock struct {
	mu    sync.RWMutex
	owner atomic.Int64 // goroutine ID of a write-lock holder inside a Schedule callback, else 0
}

// lock acquires the write side unless the calling goroutine already
// holds it. It reports whether the lock was actually taken — pass the
// result to unlock.
func (l *netLock) lock() bool {
	if l.held() {
		return false // reentrant: a Schedule callback calling back in
	}
	l.mu.Lock()
	return true
}

// unlock releases the write side when lock actually took it, disarming
// the reentrancy a callback fired during the hold may have armed.
func (l *netLock) unlock(acquired bool) {
	if acquired {
		l.owner.Store(0)
		l.mu.Unlock()
	}
}

// rlock acquires the read side unless the calling goroutine holds the
// write side (reentrant read from a callback).
func (l *netLock) rlock() bool {
	if l.held() {
		return false
	}
	l.mu.RLock()
	return true
}

// runlock releases the read side when rlock actually took it.
func (l *netLock) runlock(acquired bool) {
	if acquired {
		l.mu.RUnlock()
	}
}

// held reports whether the calling goroutine is inside a Schedule
// callback of the current write-lock hold.
func (l *netLock) held() bool {
	o := l.owner.Load()
	return o != 0 && o == goid()
}

// arm makes the lock reentrant for the calling goroutine, which must
// hold the write side, until that hold is released. Once per hold, not
// per callback: a run may fire thousands.
func (l *netLock) arm() {
	if l.owner.Load() == 0 {
		l.owner.Store(goid())
	}
}

// goid returns the current goroutine's ID by parsing the first line of
// its stack trace ("goroutine 123 [running]:"). Goroutine IDs are never
// reused as 0, so 0 can mean "no owner". The parse costs microseconds,
// which is why only callbacks (and goroutines contending with one) pay
// it; it survives because Schedule's contract — a plain func() free to
// use the public API, which the benchmark's traffic generators pin —
// leaves no other way to recognise the callback's goroutine.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id int64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
