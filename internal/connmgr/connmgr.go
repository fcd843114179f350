// Package connmgr implements the two idle-TCP-connection management
// strategies the paper compares:
//
//   - Scanner (baseline, §5.2): every check examines *every* connection
//     object while holding the backing store's lock. For the supervisor the
//     backing store is the shared hash table and its single global lock —
//     the source of the sched_yield storms in the paper's kernel profile
//     under the 50 ops/conn workload.
//   - PQueue (the Figure 5 fix, §5.3): connections are kept ordered by
//     idle deadline in a priority queue, so a check touches only the
//     entries that have actually timed out. Connections that turn out not
//     to be collectable yet (deadline pushed by traffic since, or still
//     owned by a worker) are reinserted, exactly as the paper describes.
//
// Both implement Manager, so the server architecture is policy-free.
package connmgr

import (
	"container/heap"
	"sync"
	"time"

	"gosip/internal/conn"
	"gosip/internal/metrics"
)

// Eligible decides whether an expired connection may be collected now. The
// supervisor uses this to defer connections the owning worker has not yet
// returned; workers use it to select only connections they own.
type Eligible func(c *conn.TCPConn, now time.Time) bool

// Manager tracks idle deadlines for a set of connections.
type Manager interface {
	// Add starts tracking a connection.
	Add(c *conn.TCPConn)
	// Remove stops tracking a connection.
	Remove(c *conn.TCPConn)
	// Expired returns connections whose idle deadline has passed and for
	// which eligible reports true, removing them from tracking. Entries
	// that have expired but are not yet eligible stay tracked.
	Expired(now time.Time, eligible Eligible) []*conn.TCPConn
	// Len reports how many connections are tracked.
	Len() int
}

// Kind names a strategy for configuration.
type Kind string

// Available strategies.
const (
	KindScan   Kind = "scan"
	KindPQueue Kind = "pqueue"
)

// New builds a manager of the given kind reporting into profile.
func New(kind Kind, profile *metrics.Profile) Manager {
	if kind == KindPQueue {
		return NewPQueue(profile)
	}
	return NewScanner(profile)
}

// Scanner is the baseline strategy: a flat set scanned in full on every
// check, with the set's lock held for the whole traversal.
type Scanner struct {
	mu    sync.Mutex
	conns map[conn.ID]*conn.TCPConn

	scanTime *metrics.Timer
	visits   *metrics.Counter
	scanHist *metrics.Histogram
}

// NewScanner creates an empty baseline manager.
func NewScanner(profile *metrics.Profile) *Scanner {
	return &Scanner{
		conns:    make(map[conn.ID]*conn.TCPConn),
		scanTime: profile.Timer(metrics.MetricIdleScanTime),
		visits:   profile.Counter(metrics.MetricIdleScanVisits),
		scanHist: profile.Histogram(metrics.StageIdleScan),
	}
}

// Add starts tracking c.
func (s *Scanner) Add(c *conn.TCPConn) {
	s.mu.Lock()
	s.conns[c.ID()] = c
	s.mu.Unlock()
}

// Remove stops tracking c.
func (s *Scanner) Remove(c *conn.TCPConn) {
	s.mu.Lock()
	delete(s.conns, c.ID())
	s.mu.Unlock()
}

// Expired scans every tracked connection under the lock.
func (s *Scanner) Expired(now time.Time, eligible Eligible) []*conn.TCPConn {
	start := time.Now()
	s.mu.Lock()
	var out []*conn.TCPConn
	visited := int64(0)
	for id, c := range s.conns {
		visited++
		if c.State() == conn.StateClosed {
			delete(s.conns, id)
			continue
		}
		if c.ExpiredAt(now) && eligible(c, now) {
			delete(s.conns, id)
			out = append(out, c)
		}
	}
	s.mu.Unlock()
	s.visits.Add(visited)
	d := time.Since(start)
	s.scanTime.AddDuration(d)
	s.scanHist.Record(d)
	return out
}

// Len reports the tracked count.
func (s *Scanner) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// PQueue orders connections by idle deadline. Entries are lazily keyed:
// traffic moves a connection's deadline (conn.TCPConn.Touch) without
// touching the queue, so an entry keyed at the deadline the connection had
// when it was added pops early and is re-keyed at the real deadline then;
// removed connections' entries are discarded when popped. Popped entries
// that are expired but not yet eligible are reinserted, matching the
// paper's description of the supervisor reinserting connections it cannot
// destroy yet.
type PQueue struct {
	mu   sync.Mutex
	h    connHeap
	live map[conn.ID]struct{} // tracked connections

	// ReinsertDelay is how far in the future an expired-but-ineligible
	// connection is re-keyed; it models the supervisor re-checking returned
	// connections after its additional timeout period.
	ReinsertDelay time.Duration

	scanTime *metrics.Timer
	visits   *metrics.Counter
	scanHist *metrics.Histogram
}

// NewPQueue creates an empty priority-queue manager.
func NewPQueue(profile *metrics.Profile) *PQueue {
	return &PQueue{
		live:          make(map[conn.ID]struct{}),
		ReinsertDelay: 100 * time.Millisecond,
		scanTime:      profile.Timer(metrics.MetricIdleScanTime),
		visits:        profile.Counter(metrics.MetricIdleScanVisits),
		scanHist:      profile.Histogram(metrics.StageIdleScan),
	}
}

type pqEntry struct {
	c  *conn.TCPConn
	at time.Time
}

type connHeap []pqEntry

func (h connHeap) Len() int           { return len(h) }
func (h connHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h connHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *connHeap) Push(x any)        { *h = append(*h, x.(pqEntry)) }
func (h *connHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Add starts tracking c, keyed at its current deadline.
func (p *PQueue) Add(c *conn.TCPConn) {
	p.mu.Lock()
	heap.Push(&p.h, pqEntry{c: c, at: c.Deadline()})
	p.live[c.ID()] = struct{}{}
	p.mu.Unlock()
}

// Remove stops tracking c lazily: entries are dropped when popped.
func (p *PQueue) Remove(c *conn.TCPConn) {
	p.mu.Lock()
	delete(p.live, c.ID())
	p.mu.Unlock()
}

// Expired pops entries whose key has passed. Each popped entry is checked
// against the connection's *actual* deadline: still-fresh connections are
// reinserted at their real deadline; expired-but-ineligible ones are
// reinserted ReinsertDelay in the future; expired eligible ones are
// returned. Only timed-out entries are examined — the whole point of the
// fix.
func (p *PQueue) Expired(now time.Time, eligible Eligible) []*conn.TCPConn {
	start := time.Now()
	p.mu.Lock()
	var out []*conn.TCPConn
	visited := int64(0)
	for len(p.h) > 0 && !p.h[0].at.After(now) {
		e := heap.Pop(&p.h).(pqEntry)
		visited++
		id := e.c.ID()
		if _, tracked := p.live[id]; !tracked || e.c.State() == conn.StateClosed {
			delete(p.live, id)
			continue
		}
		if !e.c.ExpiredAt(now) {
			// Touched since this entry was keyed: re-key at the real deadline.
			heap.Push(&p.h, pqEntry{c: e.c, at: e.c.Deadline()})
			continue
		}
		if !eligible(e.c, now) {
			heap.Push(&p.h, pqEntry{c: e.c, at: now.Add(p.ReinsertDelay)})
			continue
		}
		delete(p.live, id)
		out = append(out, e.c)
	}
	p.mu.Unlock()
	p.visits.Add(visited)
	d := time.Since(start)
	p.scanTime.AddDuration(d)
	p.scanHist.Record(d)
	return out
}

// Len reports how many connections are tracked.
func (p *PQueue) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.live)
}

// TableScanner is the supervisor's baseline strategy: it scans the entire
// shared connection hash table while holding the table's single global
// lock (conn.Table.ForEachLocked), so every worker lookup during the scan
// blocks — the contention the paper's kernel profile exposed as a storm of
// sched_yield calls from the spin-lock implementation.
type TableScanner struct {
	table *conn.Table

	scanTime *metrics.Timer
	visits   *metrics.Counter
	scanHist *metrics.Histogram
}

// NewTableScanner creates the shared-table baseline manager. Membership is
// the table itself, so Add and Remove are no-ops.
func NewTableScanner(table *conn.Table, profile *metrics.Profile) *TableScanner {
	return &TableScanner{
		table:    table,
		scanTime: profile.Timer(metrics.MetricIdleScanTime),
		visits:   profile.Counter(metrics.MetricIdleScanVisits),
		scanHist: profile.Histogram(metrics.StageIdleScan),
	}
}

// Add is a no-op: the shared table is the membership.
func (s *TableScanner) Add(*conn.TCPConn) {}

// Remove is a no-op: destroying the connection removes it from the table.
func (s *TableScanner) Remove(*conn.TCPConn) {}

// Expired visits every connection object under the table's global lock.
func (s *TableScanner) Expired(now time.Time, eligible Eligible) []*conn.TCPConn {
	start := time.Now()
	var out []*conn.TCPConn
	visited := int64(0)
	s.table.ForEachLocked(func(c *conn.TCPConn) {
		visited++
		if c.State() == conn.StateClosed {
			return
		}
		if c.ExpiredAt(now) && eligible(c, now) {
			out = append(out, c)
		}
	})
	s.visits.Add(visited)
	d := time.Since(start)
	s.scanTime.AddDuration(d)
	s.scanHist.Record(d)
	return out
}

// Len reports the table size.
func (s *TableScanner) Len() int { return s.table.Len() }
