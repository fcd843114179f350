package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"gosip/internal/core"
	"gosip/internal/loadgen"
	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/overload"
	"gosip/internal/sipmsg"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// RegisterScale shapes the registration-avalanche sweep: a registrar holding
// a large pre-filled location store, hit by N phones all re-REGISTERing
// inside one retry window — the synchronized re-registration storm that
// follows a registrar restart or a network partition healing, when every
// phone's binding timer fires in the same interval.
//
// The sweep isolates the registrar tier the way the overload sweep isolates
// admission control: server capacity is pinned by the simulated credential
// database (LookupLatency serialized over DBPool connections), so the cells
// measure how the three registrar defenses compose — the O(1) expiry-wheel
// location store (always on), the digest-auth credential cache (cuts the
// database out of the steady-state path), and the PR 3 admission controller
// (sheds the excess cheaply when the database is the bottleneck anyway).
type RegisterScale struct {
	// Phones are the avalanche sizes: concurrent closed-loop re-registering
	// endpoints. The top entry should sit well past the capacity implied by
	// DBLatency and DBPool.
	Phones []int
	// RegistersPerPhone is each phone's closed-loop REGISTER count.
	RegistersPerPhone int
	// Workers is the server worker count.
	Workers int
	// Prefill is how many synthetic bindings the location store holds before
	// the avalanche starts; bytes/binding and lookup latency under churn are
	// measured against this resident population.
	Prefill int
	// LookupProbers is how many goroutines hammer LookupOne on the prefilled
	// AORs during the measured phase (the proxy-routing side of the registrar
	// under registration churn).
	LookupProbers int
	// DBLatency and DBPool pin credential-verification capacity exactly like
	// the overload sweep: a pool of DBPool connections each taking DBLatency
	// per query.
	DBLatency time.Duration
	DBPool    int
	// CacheEntries and CacheTTL configure the auth cache for the cached
	// variants.
	CacheEntries int
	CacheTTL     time.Duration
	// MaxPending and MaxQueue are the admission controller's budgets for the
	// controlled variants.
	MaxPending int
	MaxQueue   int
	// ResponseTimeout and MaxRetries set phone patience; impatience is what
	// turns a saturated registrar into a collapsing one.
	ResponseTimeout time.Duration
	MaxRetries      int
	// RejectRetries and BackoffCap set how phones honor 503 + Retry-After.
	RejectRetries int
	BackoffCap    time.Duration
	// Reps repeats every cell and keeps the median-throughput run.
	Reps int
}

// DefaultRegisterScale pins capacity around 1000 authenticated REGISTERs/s
// (2 ms serialized over a pool of 2), so the top of the default sweep offers
// several times that and the uncached, uncontrolled cell collapses.
func DefaultRegisterScale() RegisterScale {
	return RegisterScale{
		Phones:            []int{16, 128},
		RegistersPerPhone: 40,
		Workers:           8,
		Prefill:           1_000_000,
		LookupProbers:     2,
		DBLatency:         2 * time.Millisecond,
		DBPool:            2,
		CacheEntries:      1 << 17,
		CacheTTL:          time.Minute,
		MaxPending:        8,
		MaxQueue:          16,
		ResponseTimeout:   150 * time.Millisecond,
		MaxRetries:        2,
		RejectRetries:     6,
		BackoffCap:        100 * time.Millisecond,
		Reps:              1,
	}
}

// RegisterVariant names one server configuration of the sweep.
type RegisterVariant struct {
	Name  string
	Auth  bool
	Cache bool
	// Policy is the admission controller ("ctrl" in the variant name);
	// PolicyNone leaves admission wide open.
	Policy overload.Policy
}

// registerVariants are the sweep's rows: a no-auth reference for the raw
// location-store rate, then the four auth × {cache, control} combinations.
func registerVariants() []RegisterVariant {
	return []RegisterVariant{
		{Name: "noauth"},
		{Name: "auth", Auth: true},
		{Name: "auth+ctrl", Auth: true, Policy: overload.PolicyOccupancy},
		{Name: "auth+cache", Auth: true, Cache: true},
		{Name: "auth+cache+ctrl", Auth: true, Cache: true, Policy: overload.PolicyOccupancy},
	}
}

// RegisterCell is one (variant, phones) measurement.
type RegisterCell struct {
	Measured
	Variant string
	Phones  int

	// Prefill accounting: resident store cost measured across the synthetic
	// pre-fill (nodes, per-shard wheel links, AOR index, and the store-owned
	// key strings — the full marginal footprint of one more binding).
	Prefill         int
	BytesPerBinding float64

	// Lookup latency under churn, from the prober goroutines.
	Lookups   int64
	LookupP50 time.Duration
	LookupP99 time.Duration
	LookupMax time.Duration

	// Server-side registrar counters.
	Registered   int64
	Refreshed    int64
	Deregistered int64
	// Auth-cache counters (zero when the cache is off).
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	// Shed is the admission controller's rejection count.
	Shed int64
	// LocLockWait is the total contended wait on location shard locks.
	LocLockWait time.Duration
	// HeapPeak is the run's maximum sampled heap (includes the prefill
	// resident set).
	HeapPeak uint64
}

// RegisterReport is the finished sweep.
type RegisterReport struct {
	Scale RegisterScale
	Cells []RegisterCell
}

// Cell returns the measurement for (variant, phones), or nil.
func (r *RegisterReport) Cell(variant string, phones int) *RegisterCell {
	return lookup(r.Cells, variant, phones)
}

// CacheGain returns the cached : uncached goodput ratio at the largest
// avalanche, for the uncontrolled rows (the cache's headline effect).
func (r *RegisterReport) CacheGain() float64 {
	return ratio(r.Cells, "auth+cache", "auth", top(r.Scale.Phones))
}

// RunRegister sweeps variant × avalanche size, Reps interleaved runs per
// cell on fresh servers, keeping each cell's median-goodput run. A cell
// whose counters contradict its row is an error: uncached rows must see no
// auth-cache traffic and cached rows both hits and misses, and rows without
// admission control must shed nothing.
func RunRegister(sc RegisterScale, progress func(string)) (*RegisterReport, error) {
	// The synthetic user names are shared by every cell (they are input to
	// the store, not part of its measured footprint) and built once — at the
	// default scale this is a million strings.
	users := make([]string, sc.Prefill)
	for i := range users {
		users[i] = fmt.Sprintf("pf%d", i)
	}
	cells, err := sweep(sweepSpec[RegisterVariant, RegisterCell]{
		tag: "register", rows: registerVariants(), name: func(v RegisterVariant) string { return v.Name },
		loads: sc.Phones, unit: "phones", reps: sc.Reps,
		run: func(v RegisterVariant, phones int) (RegisterCell, error) {
			return runRegisterCell(sc, v, phones, users)
		},
		note: func(c *RegisterCell) string {
			return fmt.Sprintf("%d shed; lookup p99=%v over %d probes; cache %d/%d hit/miss; %.0f B/binding",
				c.Shed, c.LookupP99.Round(time.Microsecond), c.Lookups,
				c.CacheHits, c.CacheMisses, c.BytesPerBinding)
		},
	}, progress)
	if err != nil {
		return nil, err
	}
	return &RegisterReport{Scale: sc, Cells: cells}, nil
}

func runRegisterCell(sc RegisterScale, v RegisterVariant, phones int, users []string) (RegisterCell, error) {
	cfg := core.Config{
		Arch:     core.ArchUDP,
		Workers:  sc.Workers,
		Stateful: true,
		Auth:     v.Auth,
		Domain:   "bench.gosip",
		DB: userdb.Config{
			LookupLatency: sc.DBLatency,
			PoolSize:      sc.DBPool,
		},
		Overload: overload.Config{
			Policy:     v.Policy,
			MaxPending: sc.MaxPending,
			MaxQueue:   sc.MaxQueue,
		},
	}
	if v.Cache {
		cfg.DB.Cache = userdb.CacheConfig{Entries: sc.CacheEntries, TTL: sc.CacheTTL}
	}
	c := RegisterCell{Variant: v.Name, Phones: phones, Prefill: sc.Prefill}
	lookups := new(metrics.Histogram)
	var series metrics.Series
	run, err := runServer(cfg, loadgen.Config{
		Scenario:        loadgen.ScenarioRegistrations,
		Transport:       transport.UDP,
		Pairs:           phones,
		CallsPerCaller:  sc.RegistersPerPhone,
		ResponseTimeout: sc.ResponseTimeout,
		MaxRetries:      sc.MaxRetries,
		RejectRetries:   sc.RejectRetries,
		BackoffCap:      sc.BackoffCap,
		// Setup registers against the same capacity-pinned database; trickle
		// it so the unmeasured phase doesn't trip the controller first.
		RegisterConcurrency: 8,
	}, c.prefill(users, sc.LookupProbers, lookups), sampled(50*time.Millisecond, &series))
	c.Result = run.res
	snap := lookups.Snapshot()
	c.Lookups = snap.Count
	c.LookupP50 = snap.Quantile(0.50)
	c.LookupP99 = snap.Quantile(0.99)
	c.LookupMax = snap.Max
	n := run.snap.Counters
	c.Registered = n[metrics.MetricLocRegistered]
	c.Refreshed = n[metrics.MetricLocRefreshed]
	c.Deregistered = n[metrics.MetricLocDeregistered]
	c.CacheHits = n[metrics.MetricAuthCacheHits]
	c.CacheMisses = n[metrics.MetricAuthCacheMisses]
	c.CacheEvictions = n[metrics.MetricAuthCacheEvictions]
	c.Shed = n[metrics.MetricOverloadRejected]
	c.LocLockWait = run.snap.Timers[metrics.MetricLocLockWait].Total
	for _, s := range series.Samples {
		c.HeapPeak = max(c.HeapPeak, s.HeapAlloc)
	}
	if err != nil {
		return c, err
	}
	if v.Cache && (c.CacheHits == 0 || c.CacheMisses == 0) || !v.Cache && c.CacheHits+c.CacheMisses != 0 {
		return c, fmt.Errorf("auth-cache counters %d/%d hit/miss contradict cache=%v", c.CacheHits, c.CacheMisses, v.Cache)
	}
	if (v.Policy == "" || v.Policy == overload.PolicyNone) && c.Shed != 0 {
		return c, fmt.Errorf("%d REGISTERs shed without admission control", c.Shed)
	}
	return c, nil
}

// prefill is the register cell's hook. It fills the location store with the
// synthetic population the avalanche churns on top of, measuring the
// store's marginal heap cost per binding, then starts the lookup probers
// that race the registration storm; its stop halts them.
func (c *RegisterCell) prefill(users []string, probers int, hist *metrics.Histogram) hook {
	return func(srv core.Server) func() {
		// The contact/user strings exist before the baseline snapshot, so
		// the measured delta is the store's own marginal cost per binding
		// (node, wheel links, AOR index slot, store-owned key string).
		loc := srv.Location()
		now := time.Now()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, u := range users {
			loc.RegisterContact(
				sipmsg.URI{User: u, Host: "bench.gosip"},
				location.Binding{
					Contact:   sipmsg.URI{User: u, Host: "192.0.2.10", Port: 5060},
					Transport: "UDP",
					Source:    "192.0.2.10:5060",
				}, time.Hour, now)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if len(users) > 0 && after.HeapAlloc > before.HeapAlloc {
			c.BytesPerBinding = float64(after.HeapAlloc-before.HeapAlloc) / float64(len(users))
		}

		// Probes come in short bursts with a sleep between them: the probers
		// are latency instruments, not load, and spinning them flat-out
		// would starve the server they are measuring on small hosts.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for p := 0; p < probers && len(users) > 0; p++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for k := 0; k < 8; k++ {
						u := sipmsg.URI{User: users[i%len(users)], Host: "bench.gosip"}
						t0 := time.Now()
						loc.LookupOne(u, t0)
						hist.Record(time.Since(t0))
						i += 7919 // coprime stride: spread probes across shards
					}
					time.Sleep(2 * time.Millisecond)
				}
			}(p * 104729)
		}
		return func() {
			close(stop)
			wg.Wait()
		}
	}
}

// Table renders goodput versus avalanche size, variants as rows, plus the
// store-cost and lookup-latency columns at the largest avalanche.
func (r *RegisterReport) Table() string {
	g := table("variant", "%d phones", r.Scale.Phones, r.Cells,
		func(c *RegisterCell) string { return fmt.Sprintf("%s reg/s (%d shed)", c.tput(), c.Shed) },
		column[RegisterCell]{"lookup p50/p99", func(c *RegisterCell) string {
			return fmt.Sprintf("%v/%v", c.LookupP50.Round(time.Microsecond), c.LookupP99.Round(time.Microsecond))
		}},
		column[RegisterCell]{"B/binding", func(c *RegisterCell) string { return fmt.Sprintf("%.0f", c.BytesPerBinding) }},
	)
	s := fmt.Sprintf("Registration avalanche: sustained REGISTER goodput (reg/s) vs avalanche size\n"+
		"(location store pre-filled with %d bindings; DB %v x%d pool)\n\n%s",
		r.Scale.Prefill, r.Scale.DBLatency, r.Scale.DBPool, g.text())
	if gain := r.CacheGain(); gain > 0 {
		s += fmt.Sprintf("\nauth-cache gain at %d phones (no control): %.1fx uncached goodput\n", top(r.Scale.Phones), gain)
	}
	return s
}

// Markdown renders the sweep as a GitHub table for EXPERIMENTS.md.
func (r *RegisterReport) Markdown() string {
	return table("variant", "%d phones", r.Scale.Phones, r.Cells, func(c *RegisterCell) string { return c.tput() },
		column[RegisterCell]{"shed @ max", func(c *RegisterCell) string { return fmt.Sprint(c.Shed) }},
		column[RegisterCell]{"lookup p99 @ max", func(c *RegisterCell) string { return c.LookupP99.Round(time.Microsecond).String() }},
		column[RegisterCell]{"cache hit/miss @ max", func(c *RegisterCell) string { return fmt.Sprintf("%d/%d", c.CacheHits, c.CacheMisses) }},
		column[RegisterCell]{"B/binding", func(c *RegisterCell) string { return fmt.Sprintf("%.0f", c.BytesPerBinding) }},
	).markdown()
}
