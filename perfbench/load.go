package main

// The generator side: the proxy child's lifecycle and the closed-loop
// phones that load it.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"gosip/internal/phone"
	"gosip/internal/userdb"
)

// roleEnv marks a re-executed benchmark binary as the proxy child.
const roleEnv = "PERFBENCH_ROLE"

// child is a running proxy process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
	ready readyMsg
}

func startChild(o options, traced bool) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", o.workload.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-traced="+strconv.FormatBool(traced), "-cpu", strconv.Itoa(o.cpu))
	cmd.Env = append(os.Environ(), roleEnv+"=server")
	cmd.Stderr = os.Stderr
	// The child dies with the generator, whatever ends the generator.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start proxy process: %w", err)
	}
	c := &child{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)}
	c.out.Buffer(make([]byte, 64<<10), 16<<20)
	if err := c.read(&c.ready); err != nil {
		c.kill()
		return nil, fmt.Errorf("proxy process did not start: %w", err)
	}
	return c, nil
}

func (c *child) read(v any) error {
	if !c.out.Scan() {
		if err := c.out.Err(); err != nil {
			return err
		}
		return io.ErrUnexpectedEOF
	}
	return json.Unmarshal(c.out.Bytes(), v)
}

func (c *child) call(cmd string, reply any) error {
	if _, err := io.WriteString(c.stdin, cmd+"\n"); err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	if err := c.read(reply); err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	return nil
}

// quiesce asks the child for its ledger and waits for it to exit.
func (c *child) quiesce() (ledger, error) {
	var l ledger
	err := c.call(cmdQuiesce, &l)
	c.stdin.Close()
	if werr := c.cmd.Wait(); err == nil && werr != nil {
		err = fmt.Errorf("proxy process: %w", werr)
	}
	return l, err
}

func (c *child) kill() {
	c.stdin.Close()
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// injection names a deliberate fault the self-test uses to prove the
// correctness gate trips. It applies to the measured window only.
type injection string

const (
	injectNone = injection("")
	// injectUnprovisionedCallee makes the measured calls target a user the
	// proxy does not know, so every INVITE is answered 404.
	injectUnprovisionedCallee = injection("unprovisioned-callee")
	// injectWrongPassword makes the measured registrations come from a
	// phone with a wrong password, so every REGISTER is rejected after its
	// challenge.
	injectWrongPassword = injection("wrong-password")
)

// fleet is the generator's phones.
type fleet struct {
	phones  []*phone.Phone
	drivers []driver
	// faulty, when set, replaces drivers in the measured window.
	faulty []driver
}

// driver is one closed-loop goroutine's operation: one whole call, or one
// authenticated registration.
type driver struct {
	op       func() error
	opsPerOK int // SIP transactions one successful op completes
}

func newFleet(w workload, in inputs, addr string, inj injection) (*fleet, error) {
	f := &fleet{}
	mk := func(user int, role phone.Role, password string) (*phone.Phone, error) {
		cfg := phone.Config{
			Transport:       w.kind,
			ProxyAddr:       addr,
			Domain:          domain,
			User:            userName(user),
			Password:        password,
			ResponseTimeout: time.Second,
		}
		if role == phone.Caller {
			cfg.OpsPerConn = w.opsPerConn
		}
		p, err := phone.New(cfg, role)
		if err != nil {
			return nil, err
		}
		f.phones = append(f.phones, p)
		return p, nil
	}
	if err := f.build(w, in, inj, mk); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) build(w workload, in inputs, inj injection, mk func(int, phone.Role, string) (*phone.Phone, error)) error {
	if w.calls {
		for i := 0; i+1 < len(in.users); i += 2 {
			caller, err := mk(in.users[i], phone.Caller, "")
			if err != nil {
				return err
			}
			callee, err := mk(in.users[i+1], phone.Callee, "")
			if err != nil {
				return err
			}
			if err := callee.Register(); err != nil {
				return err
			}
			if err := caller.Register(); err != nil {
				return err
			}
			target := userName(in.users[i+1])
			f.drivers = append(f.drivers, driver{op: func() error { return caller.Call(target) }, opsPerOK: 2})
			if inj == injectUnprovisionedCallee {
				f.faulty = append(f.faulty, driver{op: func() error { return caller.Call(userName(userSpace)) }, opsPerOK: 2})
			}
		}
		return nil
	}
	for _, u := range in.users {
		p, err := mk(u, phone.Caller, userdb.PasswordFor(userName(u)))
		if err != nil {
			return err
		}
		f.drivers = append(f.drivers, driver{op: p.Register, opsPerOK: 1})
	}
	if inj == injectWrongPassword {
		p, err := mk(in.users[0], phone.Caller, "wrong")
		if err != nil {
			return err
		}
		f.faulty = append(f.faulty, driver{op: p.Register, opsPerOK: 1})
	}
	return nil
}

func (f *fleet) close() {
	for _, p := range f.phones {
		p.Close()
	}
}

// result is one closed-loop run of the fleet.
type result struct {
	wall      time.Duration
	attempted int
	failed    int
	ops       int     // completed SIP transactions
	latencyNs []int64 // one per successful driver op, sorted
	firstErr  error
}

// run drives each driver in a closed loop for ops operations.
func run(drivers []driver, ops int) result {
	var (
		mu  sync.Mutex
		res result
		wg  sync.WaitGroup
	)
	start := time.Now()
	for _, drv := range drivers {
		wg.Add(1)
		go func(drv driver) {
			defer wg.Done()
			lat := make([]int64, 0, ops)
			var attempted, failed, done int
			var firstErr error
			for n := 0; n < ops; n++ {
				t0 := time.Now()
				err := drv.op()
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lat = append(lat, int64(time.Since(t0)))
				done += drv.opsPerOK
			}
			mu.Lock()
			res.attempted += attempted
			res.failed += failed
			res.ops += done
			res.latencyNs = append(res.latencyNs, lat...)
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(drv)
	}
	wg.Wait()
	res.wall = time.Since(start)
	sortNs(res.latencyNs)
	return res
}

func sortNs(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i])
}

// session is a set-up proxy child with its fleet, ready to measure.
type session struct {
	child *child
	fleet *fleet
	setup time.Duration
}

// setUp starts the proxy child, registers the phones and warms up: the
// work setup_s times.
func setUp(o options, in inputs, traced bool) (*session, error) {
	w := o.workload
	t0 := time.Now()
	c, err := startChild(o, traced)
	if err != nil {
		return nil, err
	}
	f, err := newFleet(w, in, c.ready.Addr, o.inject)
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("phone setup: %w", err)
	}
	s := &session{child: c, fleet: f}
	warm := run(f.drivers, max(1, warmupOps/len(f.drivers)))
	if warm.failed > 0 {
		s.abort()
		return nil, fmt.Errorf("warm-up: %d of %d operations failed: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	s.setup = time.Since(t0)
	return s, nil
}

// measured is one measured window from both processes' points of view.
type measured struct {
	res       result
	server    window
	clientCPU int64  // generator CPU, ns
	clientMal uint64 // generator heap allocations
	// calBefore is the calibration kernel's time per iteration just before
	// the window, calNs its mean over both sides of the window.
	calBefore float64
	calNs     float64
}

// add pools another window into m: counts, times and allocations add,
// latency samples concatenate (unsorted), and the proxy's end-of-window
// readings (gauges, heap, trace summary) are the later window's.
func (m *measured) add(o measured) {
	m.res.wall += o.res.wall
	m.res.attempted += o.res.attempted
	m.res.failed += o.res.failed
	m.res.ops += o.res.ops
	m.res.latencyNs = append(m.res.latencyNs, o.res.latencyNs...)
	if m.res.firstErr == nil {
		m.res.firstErr = o.res.firstErr
	}
	m.clientCPU += o.clientCPU
	m.clientMal += o.clientMal
	w, x := &m.server, o.server
	w.CPUNs += x.CPUNs
	w.Mallocs += x.Mallocs
	w.Bytes += x.Bytes
	w.NumGC += x.NumGC
	w.GCCPUSec += x.GCCPUSec
	w.RSSPeakKB = max(w.RSSPeakKB, x.RSSPeakKB)
	w.HeapInuse = x.HeapInuse
	w.Gauges = x.Gauges
	w.Trace = x.Trace
	if w.Counters == nil {
		w.Counters, w.Timers, w.Hists = map[string]int64{}, map[string]timerDelta{}, map[string]histDelta{}
	}
	for k, v := range x.Counters {
		w.Counters[k] += v
	}
	for k, v := range x.Timers {
		t := w.Timers[k]
		w.Timers[k] = timerDelta{TotalNs: t.TotalNs + v.TotalNs, Count: t.Count + v.Count}
	}
	for k, v := range x.Hists {
		h := w.Hists[k]
		w.Hists[k] = histDelta{SumNs: h.SumNs + v.SumNs, Count: h.Count + v.Count}
	}
}

// calibrationTime is how long the kernel is timed on each side of a window.
const calibrationTime = 20 * time.Millisecond

// measure runs one window of ops operations shared among the drivers, with
// the calibration kernel timed on either side.
func (s *session) measure(ops int) (measured, error) {
	var m measured
	runtime.GC()
	m.calBefore = kernelNs(calibrationTime)
	if err := s.child.call(cmdBegin, &struct{}{}); err != nil {
		return m, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	drivers := s.fleet.drivers
	if s.fleet.faulty != nil {
		drivers = s.fleet.faulty
	}
	m.res = run(drivers, max(1, ops/len(drivers)))
	cpu1 := processCPU()
	runtime.ReadMemStats(&m1)
	if err := s.child.call(cmdEnd, &m.server); err != nil {
		return m, err
	}
	m.clientCPU = cpu1 - cpu0
	m.clientMal = m1.Mallocs - m0.Mallocs
	m.calNs = (m.calBefore + kernelNs(calibrationTime)) / 2
	return m, nil
}

// tearDown closes the phones and collects the child's ledger; a ledger
// violation is an error.
func (s *session) tearDown() (ledger, error) {
	s.fleet.close()
	l, err := s.child.quiesce()
	if err != nil {
		return l, err
	}
	if len(l.Violations) > 0 {
		return l, errors.New("quiescence ledger: " + fmt.Sprint(l.Violations))
	}
	return l, nil
}

func (s *session) abort() {
	s.fleet.close()
	s.child.kill()
}
