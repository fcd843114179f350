package connmgr

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gosip/internal/conn"
)

// TestConcurrentChurn hammers one manager from many goroutines at once —
// touches racing expiry checks racing removals, with an eligibility function
// that keeps flipping so the pqueue's expired-but-ineligible reinsertion
// path runs constantly. Run under -race this is the regression test for
// lost-update and double-collection races in the tracking structures.
//
// Invariants checked:
//   - a connection is collected (returned by Expired) at most once;
//   - the structures drain completely once everything is eligible;
//   - no deadlock or data race across Touch/Expired/Remove interleavings.
func TestConcurrentChurn(t *testing.T) {
	fx := newFixture()
	for name, m := range managers(t, fx) {
		m := m
		t.Run(name, func(t *testing.T) {
			const (
				nConns    = 64
				nTouchers = 4
				nReapers  = 2
			)
			conns := make([]*conn.TCPConn, nConns)
			for i := range conns {
				conns[i] = fx.conn(t, time.Millisecond)
				m.Add(conns[i])
			}

			// Roughly a third of eligibility checks fail, so reapers keep
			// exercising the reinsertion path while others collect.
			var flip atomic.Uint64
			flaky := func(*conn.TCPConn, time.Time) bool { return flip.Add(1)%3 != 0 }

			var mu sync.Mutex
			collected := make(map[conn.ID]int)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < nTouchers; g++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for i := seed; ; i += 7 {
						select {
						case <-stop:
							return
						default:
						}
						c := conns[i%nConns]
						// Half the touches push the deadline out, half leave
						// it expired, so reapers see both fresh and stale
						// entries for the same connection.
						if i%2 == 0 {
							c.Touch(time.Now(), time.Millisecond)
						} else {
							c.Touch(time.Now(), time.Hour)
						}
					}
				}(g)
			}
			for g := 0; g < nReapers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						for _, c := range m.Expired(time.Now().Add(time.Minute), flaky) {
							mu.Lock()
							collected[c.ID()]++
							mu.Unlock()
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < nConns/4; i++ {
					select {
					case <-stop:
						return
					default:
					}
					m.Remove(conns[i*4])
					time.Sleep(time.Millisecond)
				}
			}()

			time.Sleep(150 * time.Millisecond)
			close(stop)
			wg.Wait()

			// Drain: far-future check with everything eligible must empty the
			// structures (touched, reinserted, and removed entries alike).
			deadline := time.Now().Add(5 * time.Second)
			for m.Len() > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("manager did not drain: %d still tracked", m.Len())
				}
				for _, c := range m.Expired(time.Now().Add(2*time.Hour), always) {
					mu.Lock()
					collected[c.ID()]++
					mu.Unlock()
				}
			}

			for id, n := range collected {
				if n > 1 {
					t.Errorf("connection %v collected %d times", id, n)
				}
			}
			if got := m.Expired(time.Now().Add(3*time.Hour), always); len(got) != 0 {
				t.Errorf("drained manager still returned %d connections", len(got))
			}
		})
	}
}

// TestExpiredIneligibleReinsertedConcurrently pins the pqueue's reinsertion
// behavior under racing touches: an expired connection that eligibility
// rejects must stay tracked and be collectable later, never lost, even while
// touches re-key it from another goroutine.
func TestExpiredIneligibleReinsertedConcurrently(t *testing.T) {
	fx := newFixture()
	pq := NewPQueue(fx.prof)
	pq.ReinsertDelay = time.Millisecond
	c := fx.conn(t, time.Millisecond)
	pq.Add(c)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Touch(time.Now(), time.Millisecond)
		}
	}()

	// Reap with eligibility denied: the entry must survive every pop.
	for i := 0; i < 50; i++ {
		if got := pq.Expired(time.Now().Add(time.Second), never); len(got) != 0 {
			t.Fatalf("ineligible connection collected: %v", got)
		}
		if pq.Len() != 1 {
			t.Fatalf("ineligible connection lost from tracking (Len=%d)", pq.Len())
		}
	}
	close(stop)
	wg.Wait()

	got := pq.Expired(time.Now().Add(time.Hour), always)
	if len(got) != 1 || got[0] != c {
		t.Fatalf("eligible-at-last connection not collected: %v", got)
	}
	if pq.Len() != 0 {
		t.Errorf("Len = %d after collection", pq.Len())
	}
}
