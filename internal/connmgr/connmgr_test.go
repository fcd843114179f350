package connmgr

import (
	"math/rand"
	"net"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"gosip/internal/conn"
	"gosip/internal/metrics"
	"gosip/internal/transport"
)

type fixture struct {
	table *conn.Table
	prof  *metrics.Profile
}

func newFixture() *fixture {
	prof := metrics.NewProfile()
	return &fixture{table: conn.NewTable(prof), prof: prof}
}

func (f *fixture) conn(t *testing.T, ttl time.Duration) *conn.TCPConn {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	return f.table.Insert(transport.NewStreamConn(c1), ttl)
}

func always(*conn.TCPConn, time.Time) bool { return true }
func never(*conn.TCPConn, time.Time) bool  { return false }

func managers(t *testing.T, fx *fixture) map[string]Manager {
	return map[string]Manager{
		"scan":   NewScanner(fx.prof),
		"pqueue": NewPQueue(fx.prof),
	}
}

func TestExpiredBasic(t *testing.T) {
	fx := newFixture()
	for name, m := range managers(t, fx) {
		t.Run(name, func(t *testing.T) {
			fresh := fx.conn(t, time.Hour)
			stale := fx.conn(t, time.Millisecond)
			m.Add(fresh)
			m.Add(stale)
			now := time.Now().Add(10 * time.Millisecond)
			got := m.Expired(now, always)
			if len(got) != 1 || got[0] != stale {
				t.Fatalf("Expired = %v", got)
			}
			if m.Len() != 1 {
				t.Errorf("Len = %d, want 1 (fresh conn stays)", m.Len())
			}
			// The collected connection is no longer tracked.
			if got := m.Expired(now.Add(time.Millisecond), always); len(got) != 0 {
				t.Errorf("second Expired = %v", got)
			}
		})
	}
}

func TestIneligibleStaysTracked(t *testing.T) {
	fx := newFixture()
	for name, m := range managers(t, fx) {
		t.Run(name, func(t *testing.T) {
			c := fx.conn(t, time.Millisecond)
			m.Add(c)
			now := time.Now().Add(10 * time.Millisecond)
			if got := m.Expired(now, never); len(got) != 0 {
				t.Fatalf("ineligible conn collected: %v", got)
			}
			if m.Len() != 1 {
				t.Errorf("Len = %d, ineligible conn lost", m.Len())
			}
			// Once eligible, it is collected. The pqueue reinserted it
			// ReinsertDelay ahead, so check past that.
			later := now.Add(time.Second)
			if got := m.Expired(later, always); len(got) != 1 {
				t.Errorf("eligible-later collect = %v", got)
			}
		})
	}
}

func TestTouchPreventsCollection(t *testing.T) {
	fx := newFixture()
	for name, m := range managers(t, fx) {
		t.Run(name, func(t *testing.T) {
			c := fx.conn(t, 50*time.Millisecond)
			m.Add(c)
			base := time.Now()
			// Touch pushes the real deadline far out.
			c.Touch(base, time.Hour)
			if got := m.Expired(base.Add(time.Second), always); len(got) != 0 {
				t.Fatalf("touched conn collected: %v", got)
			}
			if m.Len() != 1 {
				t.Errorf("Len = %d", m.Len())
			}
		})
	}
}

func TestRemoveStopsTracking(t *testing.T) {
	fx := newFixture()
	for name, m := range managers(t, fx) {
		t.Run(name, func(t *testing.T) {
			c := fx.conn(t, time.Millisecond)
			m.Add(c)
			m.Remove(c)
			if got := m.Expired(time.Now().Add(time.Second), always); len(got) != 0 {
				t.Errorf("removed conn collected: %v", got)
			}
			if m.Len() != 0 {
				t.Errorf("Len = %d", m.Len())
			}
		})
	}
}

func TestClosedConnsDropped(t *testing.T) {
	fx := newFixture()
	for name, m := range managers(t, fx) {
		t.Run(name, func(t *testing.T) {
			c := fx.conn(t, time.Millisecond)
			m.Add(c)
			c.MarkClosed()
			if got := m.Expired(time.Now().Add(time.Second), always); len(got) != 0 {
				t.Errorf("closed conn collected: %v", got)
			}
			if m.Len() != 0 {
				t.Errorf("Len = %d, closed conn still tracked", m.Len())
			}
		})
	}
}

func TestScannerVisitsEverything(t *testing.T) {
	fx := newFixture()
	s := NewScanner(fx.prof)
	const n = 50
	for i := 0; i < n; i++ {
		s.Add(fx.conn(t, time.Hour))
	}
	before := fx.prof.Counter(metrics.MetricIdleScanVisits).Value()
	s.Expired(time.Now(), always)
	visited := fx.prof.Counter(metrics.MetricIdleScanVisits).Value() - before
	if visited != n {
		t.Errorf("scanner visited %d, want %d (must examine every object)", visited, n)
	}
}

func TestPQueueVisitsOnlyTimedOut(t *testing.T) {
	fx := newFixture()
	p := NewPQueue(fx.prof)
	const fresh, stale = 50, 3
	for i := 0; i < fresh; i++ {
		p.Add(fx.conn(t, time.Hour))
	}
	for i := 0; i < stale; i++ {
		p.Add(fx.conn(t, time.Millisecond))
	}
	before := fx.prof.Counter(metrics.MetricIdleScanVisits).Value()
	got := p.Expired(time.Now().Add(10*time.Millisecond), always)
	visited := fx.prof.Counter(metrics.MetricIdleScanVisits).Value() - before
	if len(got) != stale {
		t.Fatalf("collected %d, want %d", len(got), stale)
	}
	if visited != stale {
		t.Errorf("pqueue visited %d entries, want %d (must not scan fresh conns)", visited, stale)
	}
}

func TestPQueuePopOrderNonDecreasing(t *testing.T) {
	fx := newFixture()
	p := NewPQueue(fx.prof)
	rng := rand.New(rand.NewSource(7))
	var deadlines []time.Duration
	for i := 0; i < 40; i++ {
		ttl := time.Duration(rng.Intn(1000)) * time.Millisecond
		deadlines = append(deadlines, ttl)
		p.Add(fx.conn(t, ttl))
	}
	sort.Slice(deadlines, func(i, j int) bool { return deadlines[i] < deadlines[j] })
	// Collect in waves; each wave's deadlines must all precede the next's.
	base := time.Now()
	var collected []*conn.TCPConn
	for _, cut := range []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second} {
		wave := p.Expired(base.Add(cut), always)
		for _, c := range wave {
			if c.Deadline().After(base.Add(cut)) {
				t.Errorf("collected conn with future deadline %v at cut %v", c.Deadline(), cut)
			}
		}
		collected = append(collected, wave...)
	}
	if len(collected) != 40 {
		t.Errorf("collected %d total, want 40", len(collected))
	}
}

func TestStrategiesAgreeProperty(t *testing.T) {
	// Property: given the same set of connections and the same check time,
	// scan and pqueue collect exactly the same expired set.
	fx := newFixture()
	f := func(ttlsRaw []uint16, cutRaw uint16) bool {
		if len(ttlsRaw) == 0 {
			return true
		}
		if len(ttlsRaw) > 30 {
			ttlsRaw = ttlsRaw[:30]
		}
		s := NewScanner(fx.prof)
		p := NewPQueue(fx.prof)
		base := time.Now()
		ids := func(cs []*conn.TCPConn) []conn.ID {
			out := make([]conn.ID, len(cs))
			for i, c := range cs {
				out[i] = c.ID()
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		for _, raw := range ttlsRaw {
			ttl := time.Duration(raw%2000) * time.Millisecond
			c := fx.conn(t, time.Hour)
			c.Touch(base, ttl) // deterministic deadline from base
			s.Add(c)
			p.Add(c)
		}
		cut := base.Add(time.Duration(cutRaw%2000) * time.Millisecond)
		got1 := ids(s.Expired(cut, always))
		got2 := ids(p.Expired(cut, always))
		if len(got1) != len(got2) {
			t.Logf("scan=%d pqueue=%d", len(got1), len(got2))
			return false
		}
		for i := range got1 {
			if got1[i] != got2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNewKindDispatch(t *testing.T) {
	fx := newFixture()
	if _, ok := New(KindScan, fx.prof).(*Scanner); !ok {
		t.Error("KindScan did not produce a Scanner")
	}
	if _, ok := New(KindPQueue, fx.prof).(*PQueue); !ok {
		t.Error("KindPQueue did not produce a PQueue")
	}
	if _, ok := New(Kind("bogus"), fx.prof).(*Scanner); !ok {
		t.Error("unknown kind should default to Scanner")
	}
}

func TestTableScannerVisitsSharedTable(t *testing.T) {
	fx := newFixture()
	s := NewTableScanner(fx.table, fx.prof)
	var stale []*conn.TCPConn
	for i := 0; i < 10; i++ {
		c := fx.conn(t, time.Hour)
		if i < 3 {
			c.Touch(time.Now().Add(-2*time.Hour), time.Hour) // already expired
			stale = append(stale, c)
		}
		s.Add(c) // no-op: the table is the membership
	}
	if s.Len() != 10 {
		t.Errorf("Len = %d, want 10 (table size)", s.Len())
	}
	before := fx.prof.Counter(metrics.MetricIdleScanVisits).Value()
	got := s.Expired(time.Now(), always)
	visited := fx.prof.Counter(metrics.MetricIdleScanVisits).Value() - before
	if visited != 10 {
		t.Errorf("visited %d, want 10 (whole shared table)", visited)
	}
	if len(got) != len(stale) {
		t.Errorf("collected %d, want %d", len(got), len(stale))
	}
	// Unlike the private Scanner, collection does not remove from the
	// table: destroying the connection does.
	for _, c := range got {
		fx.table.Remove(c)
	}
	if s.Len() != 7 {
		t.Errorf("Len after removal = %d, want 7", s.Len())
	}
	// Closed conns are skipped on later scans.
	if again := s.Expired(time.Now(), always); len(again) != 0 {
		t.Errorf("re-collected %d destroyed conns", len(again))
	}
	// Remove is a harmless no-op.
	s.Remove(stale[0])
}

func TestTableScannerIneligibleStays(t *testing.T) {
	fx := newFixture()
	s := NewTableScanner(fx.table, fx.prof)
	c := fx.conn(t, time.Millisecond)
	_ = c
	now := time.Now().Add(time.Second)
	if got := s.Expired(now, never); len(got) != 0 {
		t.Errorf("ineligible collected: %v", got)
	}
	if got := s.Expired(now, always); len(got) != 1 {
		t.Errorf("eligible not collected: %v", got)
	}
}
