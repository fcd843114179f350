package main

// The layer replay: the workload's own message mix pushed through each
// layer's public function in this process, every call wrapped in a span
// (name, start, end, parent). A layer's self time is its span's duration
// minus its child spans, so proxy.Engine.Handle is measured without the
// Sender it calls.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gosip/internal/location"
	gmetrics "gosip/internal/metrics"
	"gosip/internal/proxy"
	"gosip/internal/sipmsg"
	"gosip/internal/timerlist"
	"gosip/internal/transaction"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// span is one timed call. Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// spanLog keeps spans in memory until the replay ends. The replay is
// single-threaded, so the open span is the parent of the next one. A nil
// log records nothing.
type spanLog struct {
	epoch time.Time
	spans []span
	cur   int32
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<16), cur: -1}
}

func (l *spanLog) open(name string) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.epoch)), End: -1, Parent: l.cur})
	l.cur = int32(len(l.spans) - 1)
	return l.cur
}

func (l *spanLog) close(i int32) {
	if l == nil {
		return
	}
	l.spans[i].End = int64(time.Since(l.epoch))
	l.cur = l.spans[i].Parent
}

// selfTimes returns, per span name, the total self time in ns and the
// span count. Self time is a span's duration minus the time covered by its
// direct children; children of one span never overlap on a single thread,
// so their durations add.
func (l *spanLog) selfTimes() map[string][2]int64 {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][2]int64{}
	for i, s := range l.spans {
		t := out[s.Name]
		out[s.Name] = [2]int64{t[0] + s.End - s.Start - child[i], t[1] + 1}
	}
	return out
}

// replaySender is the benchmark-owned proxy.Sender: it serializes each
// message as a socket sender would and keeps the wire bytes for the
// replay script, inside a child span of the Handle that called it.
type replaySender struct {
	log  *spanLog
	sent [][]byte
	// countAllocs makes the sender tally its own heap allocations in
	// allocs, so Handle's allocations can be reported without them.
	countAllocs bool
	allocs      uint64
}

func (s *replaySender) keep(name string, m *sipmsg.Message) error {
	var a, b runtime.MemStats
	if s.countAllocs {
		runtime.ReadMemStats(&a)
	}
	i := s.log.open(name)
	s.sent = append(s.sent, append([]byte(nil), m.Serialize()...))
	s.log.close(i)
	if s.countAllocs {
		runtime.ReadMemStats(&b)
		s.allocs += b.Mallocs - a.Mallocs
	}
	return nil
}

func (s *replaySender) ToOrigin(_ any, m *sipmsg.Message) error {
	return s.keep("sender.ToOrigin", m)
}

func (s *replaySender) ToBinding(_ location.Binding, m *sipmsg.Message) error {
	return s.keep("sender.ToBinding", m)
}

func (s *replaySender) ToAddr(_, _ string, m *sipmsg.Message) error {
	return s.keep("sender.ToAddr", m)
}

// take returns and forgets the captured messages.
func (s *replaySender) take() [][]byte {
	out := s.sent
	s.sent = nil
	return out
}

// handleKinds names the message kinds Handle is reported by.
var handleKinds = []string{"invite", "response", "ack", "bye", "register"}

func kindOf(m *sipmsg.Message) string {
	if !m.IsRequest {
		return "response"
	}
	switch m.Method {
	case sipmsg.INVITE:
		return "invite"
	case sipmsg.ACK:
		return "ack"
	case sipmsg.BYE:
		return "bye"
	case sipmsg.REGISTER:
		return "register"
	}
	return "other"
}

// replayer pushes a workload's traffic through a proxy engine assembled
// from the same layers the server uses, minus the sockets.
type replayer struct {
	w      workload
	in     inputs
	log    *spanLog
	send   *replaySender
	eng    *proxy.Engine
	loc    *location.Service
	db     *userdb.DB
	txns   *transaction.Table
	timers *timerlist.List
	via    sipmsg.Via
	origin *net.UDPAddr
	cseq   uint32

	// received is every message the engine was handed, as wire bytes: the
	// workload's message mix for the sipmsg replays.
	received [][]byte
	// allocs, when non-nil, collects heap allocations per Handle by kind.
	allocs map[string][2]uint64
}

func newReplayer(w workload, in inputs) *replayer {
	prof := gmetrics.NewProfile()
	cfg := w.serverConfig(false)
	loc := location.NewService(location.Options{Profile: prof})
	db := userdb.New(cfg.DB, prof)
	db.ProvisionN(userSpace, domain)
	timers := timerlist.NewManual()
	txns := transaction.NewTable(cfg.Txn, timers, prof)
	kind := w.kind
	eng := proxy.NewEngine(proxy.Config{
		Mode:         proxy.ModeProxy,
		Auth:         cfg.Auth,
		Stateful:     cfg.Stateful,
		Reliable:     kind == transport.TCP,
		ViaTransport: string(kind),
		ViaHost:      "127.0.0.1",
		ViaPort:      5060,
		Domain:       domain,
	}, loc, db, txns, prof)
	r := &replayer{
		w:      w,
		in:     in,
		send:   &replaySender{},
		eng:    eng,
		loc:    loc,
		db:     db,
		txns:   txns,
		timers: timers,
		via:    sipmsg.Via{Transport: string(kind), Host: "127.0.0.1", Port: 40000},
		origin: &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000},
	}
	if kind == transport.UDP {
		// As in the UDP server: retransmission timers are armed through a
		// timer sender. They never fire here; the responses cancel them.
		eng.SetTimerSender(r.send)
	}
	now := time.Now()
	for _, u := range in.prefill {
		loc.RegisterContact(prefillURI(u), location.Binding{
			Contact: prefillContact(u), Transport: "UDP", Source: "192.0.2.10:5060",
		}, time.Hour, now)
	}
	// The phones' own bindings, as their setup registration leaves them.
	for _, u := range in.users {
		name := userName(u)
		loc.RegisterContact(sipmsg.URI{User: name, Host: domain}, location.Binding{
			Contact: sipmsg.URI{User: name, Host: "127.0.0.1", Port: 40000 + u}, Transport: string(kind),
			Source: fmt.Sprintf("127.0.0.1:%d", 40000+u),
		}, time.Hour, now)
	}
	return r
}

func (r *replayer) close() {
	r.timers.Close()
	r.loc.Close()
}

func (r *replayer) setLog(l *spanLog) {
	r.log = l
	r.send.log = l
}

// handle parses wire bytes as the server's receive loop does and runs the
// engine on them.
func (r *replayer) handle(wire []byte) error {
	r.received = append(r.received, wire)
	m, err := sipmsg.Parse(wire)
	if err != nil {
		return fmt.Errorf("replay: parse: %w", err)
	}
	kind := kindOf(m)
	if r.allocs != nil {
		var a, b runtime.MemStats
		r.send.countAllocs, r.send.allocs = true, 0
		runtime.ReadMemStats(&a)
		r.eng.Handle(r.send, m, r.origin)
		runtime.ReadMemStats(&b)
		r.send.countAllocs = false
		c := r.allocs[kind]
		r.allocs[kind] = [2]uint64{c[0] + b.Mallocs - a.Mallocs - r.send.allocs, c[1] + 1}
	} else {
		i := r.log.open("proxy.Handle." + kind)
		r.eng.Handle(r.send, m, r.origin)
		r.log.close(i)
	}
	m.Release()
	return nil
}

func (r *replayer) nextCSeq() uint32 {
	r.cseq++
	return r.cseq
}

// captured returns the messages the engine sent since the last call,
// parsed, and fails unless there are exactly want of them.
func (r *replayer) captured(want int) ([]*sipmsg.Message, error) {
	wires := r.send.take()
	if len(wires) != want {
		return nil, fmt.Errorf("replay: engine sent %d messages, want %d", len(wires), want)
	}
	out := make([]*sipmsg.Message, len(wires))
	for i, w := range wires {
		m, err := sipmsg.Parse(w)
		if err != nil {
			return nil, fmt.Errorf("replay: reparse: %w", err)
		}
		out[i] = m
	}
	return out, nil
}

// respond answers a forwarded request as the callee would, and hands the
// response to the engine after timing the transaction match it will do.
func (r *replayer) respond(req *sipmsg.Message, code int, tag string, contact *sipmsg.URI) error {
	resp := sipmsg.NewResponse(req, code, tag)
	if contact != nil {
		resp.Add("Contact", sipmsg.NameAddr{URI: *contact}.String())
	}
	if top, err := resp.TopVia(); err == nil {
		_, method, _ := resp.CSeq()
		i := r.log.open("transaction.MatchParts")
		tx := r.txns.MatchParts(top.Branch(), method)
		r.log.close(i)
		if tx == nil {
			return fmt.Errorf("replay: no transaction for %d %s", code, method)
		}
	}
	return r.handle(wireOf(resp))
}

// call replays one whole call from caller to callee: INVITE, 180, 200,
// ACK, BYE, 200, checking the engine forwards each.
func (r *replayer) call(caller, callee string) error {
	from := sipmsg.URI{User: caller, Host: domain}
	to := sipmsg.URI{User: callee, Host: domain}
	fromTag := sipmsg.NewTag()
	callID := sipmsg.NewCallID(caller)
	invite := sipmsg.NewRequest(sipmsg.RequestSpec{
		Method: sipmsg.INVITE, RequestURI: to,
		From: sipmsg.NameAddr{URI: from, Params: map[string]string{"tag": fromTag}},
		To:   sipmsg.NameAddr{URI: to}, CallID: callID, CSeq: r.nextCSeq(), Via: r.via,
		Contact: &sipmsg.NameAddr{URI: from},
		Body:    []byte("v=0\r\no=- 0 0 IN IP4 0.0.0.0\r\ns=-\r\n"),
	})
	i := r.log.open("location.LookupOne")
	_, ok := r.loc.LookupOne(to, time.Now())
	r.log.close(i)
	if !ok {
		return fmt.Errorf("replay: no binding for %s", callee)
	}
	if err := r.handle(wireOf(invite)); err != nil {
		return err
	}
	sent, err := r.captured(2) // 100 Trying upstream, INVITE downstream
	if err != nil {
		return err
	}
	fwd := sent[1]
	tag := sipmsg.NewTag()
	if err := r.respond(fwd, sipmsg.StatusRinging, tag, nil); err != nil {
		return err
	}
	if _, err := r.captured(1); err != nil {
		return err
	}
	calleeContact := sipmsg.URI{User: callee, Host: "127.0.0.1", Port: 40001}
	if err := r.respond(fwd, sipmsg.StatusOK, tag, &calleeContact); err != nil {
		return err
	}
	up, err := r.captured(1)
	if err != nil {
		return err
	}
	final := up[0]
	if final.StatusCode != sipmsg.StatusOK {
		return fmt.Errorf("replay: INVITE final %d", final.StatusCode)
	}
	if err := r.handle(wireOf(sipmsg.NewAck(invite, final, r.via))); err != nil {
		return err
	}
	if _, err := r.captured(1); err != nil {
		return err
	}
	bye := sipmsg.NewRequest(sipmsg.RequestSpec{
		Method: sipmsg.BYE, RequestURI: to,
		From:   sipmsg.NameAddr{URI: from, Params: map[string]string{"tag": fromTag}},
		To:     sipmsg.NameAddr{URI: to, Params: map[string]string{"tag": final.ToTag()}},
		CallID: callID, CSeq: r.nextCSeq(), Via: r.via,
	})
	if err := r.handle(wireOf(bye)); err != nil {
		return err
	}
	down, err := r.captured(1)
	if err != nil {
		return err
	}
	if err := r.respond(down[0], sipmsg.StatusOK, tag, nil); err != nil {
		return err
	}
	up, err = r.captured(1)
	if err != nil {
		return err
	}
	if up[0].StatusCode != sipmsg.StatusOK {
		return fmt.Errorf("replay: BYE final %d", up[0].StatusCode)
	}
	return nil
}

// register replays one authenticated registration: REGISTER, 401,
// REGISTER with credentials, 200.
func (r *replayer) register(user string) error {
	aor := sipmsg.URI{User: user, Host: domain}
	reg := sipmsg.NewRequest(sipmsg.RequestSpec{
		Method: sipmsg.REGISTER, RequestURI: sipmsg.URI{Host: domain},
		From: sipmsg.NameAddr{URI: aor, Params: map[string]string{"tag": sipmsg.NewTag()}},
		To:   sipmsg.NameAddr{URI: aor}, CallID: sipmsg.NewCallID(user), CSeq: r.nextCSeq(), Via: r.via,
		Contact: &sipmsg.NameAddr{URI: sipmsg.URI{User: user, Host: "127.0.0.1", Port: 40000}},
		Expires: 3600,
	})
	if err := r.handle(wireOf(reg)); err != nil {
		return err
	}
	ch, err := r.captured(1)
	if err != nil {
		return err
	}
	if ch[0].StatusCode != 401 {
		return fmt.Errorf("replay: REGISTER answered %d, want a challenge", ch[0].StatusCode)
	}
	hv, _ := ch[0].Get("WWW-Authenticate")
	realm, nonce, err := proxy.ParseChallenge(hv)
	if err != nil {
		return err
	}
	retry := reg.Clone()
	retry.Set("CSeq", fmt.Sprintf("%d %s", r.nextCSeq(), sipmsg.REGISTER))
	via := r.via
	via.Params = map[string]string{"branch": sipmsg.NewBranch()}
	retry.RemoveFirst("Via")
	retry.Prepend("Via", via.String())
	uri := retry.RequestURI.String()
	retry.Set("Authorization", proxy.Credentials{
		Username: user, Realm: realm, Nonce: nonce, URI: uri,
		Response: proxy.DigestResponse(user, realm, userdb.PasswordFor(user), nonce, string(sipmsg.REGISTER), uri),
	}.Format())
	if err := r.handle(wireOf(retry)); err != nil {
		return err
	}
	ok, err := r.captured(1)
	if err != nil {
		return err
	}
	if ok[0].StatusCode != sipmsg.StatusOK {
		return fmt.Errorf("replay: authenticated REGISTER answered %d", ok[0].StatusCode)
	}
	return nil
}

// op replays the workload's operation number n.
func (r *replayer) op(n int) error {
	if r.w.calls {
		pairs := len(r.in.users) / 2
		p := n % pairs
		return r.call(userName(r.in.users[2*p]), userName(r.in.users[2*p+1]))
	}
	return r.register(userName(r.in.users[n%len(r.in.users)]))
}

// reap expires every lingering transaction and cancelled timer, as the
// server's timer process eventually does.
func (r *replayer) reap() { r.timers.CheckNow(time.Now().Add(time.Hour)) }

// replayOps is how many operations each replay pass runs.
const (
	replayWarmOps  = 200
	replayTimedOps = 1000
	replayAllocOps = 100
	reapEvery      = 100
)

// replayResult is what the replay measured.
type replayResult struct {
	self       map[string]float64 // mean self ns per span name
	handleSelf float64            // mean self ns of Handle over all messages
	allocs     map[string]float64 // mean allocs per Handle, by kind and "all"
	parseAlloc float64
	spans      []span
}

// runReplay replays the workload through every layer its server path runs.
// pending is the server's standing timer population.
func runReplay(w workload, in inputs, pending int) (replayResult, error) {
	var res replayResult
	r := newReplayer(w, in)
	defer r.close()

	// Warm pools and caches, then the timed pass, then allocations.
	for n := 0; n < replayWarmOps; n++ {
		if err := r.op(n); err != nil {
			return res, err
		}
	}
	r.reap()
	r.received = r.received[:0]
	log := newSpanLog()
	r.setLog(log)
	for n := 0; n < replayTimedOps; n++ {
		if err := r.op(n); err != nil {
			return res, err
		}
		if n%reapEvery == reapEvery-1 {
			r.reap()
		}
	}
	mix := r.received
	r.setLog(nil)
	r.allocs = map[string][2]uint64{}
	for n := 0; n < replayAllocOps; n++ {
		if err := r.op(n); err != nil {
			return res, err
		}
	}
	r.reap()
	res.allocs = map[string]float64{}
	var all [2]uint64
	for k, c := range r.allocs {
		res.allocs[k] = ratio(float64(c[0]), float64(c[1]))
		all[0] += c[0]
		all[1] += c[1]
	}
	res.allocs["all"] = ratio(float64(all[0]), float64(all[1]))

	replaySipmsg(log, mix, w.runs("conn"))
	res.parseAlloc = parseAllocs(mix)
	if w.runs("timerlist") {
		replayTimers(log, pending)
	}
	if !w.calls {
		replayRegistrar(log, r.loc, in)
	}
	if w.runs("userdb") {
		replayUserDB(log, r.db, in)
	}
	res.self = map[string]float64{}
	var handle [2]int64
	for name, t := range log.selfTimes() {
		res.self[name] = ratio(float64(t[0]), float64(t[1]))
		if strings.HasPrefix(name, "proxy.Handle.") {
			handle[0] += t[0]
			handle[1] += t[1]
		}
	}
	// Every Handle span is one received message, so the mean over all of
	// them is the workload-weighted mean.
	res.handleSelf = ratio(float64(handle[0]), float64(handle[1]))
	res.spans = log.spans
	return res, nil
}

// replaySipmsg times Parse, AppendTo and (for stream workloads) stream
// framing over the workload's received message mix.
func replaySipmsg(log *spanLog, mix [][]byte, stream bool) {
	for _, wire := range mix {
		i := log.open("sipmsg.Parse")
		m, err := sipmsg.Parse(wire)
		log.close(i)
		if err != nil {
			continue
		}
		m.Release()
	}
	buf := make([]byte, 0, 4096)
	for _, wire := range mix {
		m, err := sipmsg.Parse(wire)
		if err != nil {
			continue
		}
		i := log.open("sipmsg.AppendTo")
		buf = m.AppendTo(buf[:0])
		log.close(i)
		m.Release()
	}
	if !stream {
		return
	}
	rd := sipmsg.NewReader(bytes.NewReader(bytes.Join(mix, nil)))
	for range mix {
		i := log.open("sipmsg.Reader.ReadMessage")
		m, err := rd.ReadMessage()
		log.close(i)
		if err != nil {
			return
		}
		m.Release()
	}
}

// parseAllocs is the mean heap allocations of one Parse over the mix.
func parseAllocs(mix [][]byte) float64 {
	if len(mix) == 0 {
		return 0
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, wire := range mix {
		if m, err := sipmsg.Parse(wire); err == nil {
			m.Release()
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(len(mix))
}

// replayTimers times a retransmit timer's schedule+cancel on the server's
// default heap, holding the server's standing population.
func replayTimers(log *spanLog, pending int) {
	l := timerlist.NewManual()
	defer l.Close()
	now := time.Now()
	for i := 0; i < pending; i++ {
		l.Schedule(now.Add(time.Hour), func() {})
	}
	fn := func() {}
	for n := 0; n < 4096; n++ {
		i := log.open("timerlist.ScheduleCancel")
		t := l.After(500*time.Millisecond, fn)
		t.Cancel()
		log.close(i)
		if n%256 == 255 {
			l.CheckNow(time.Now().Add(time.Second)) // reap the cancelled corpses
		}
	}
}

// replayRegistrar times binding refreshes over the resident population.
func replayRegistrar(log *spanLog, loc *location.Service, in inputs) {
	now := time.Now()
	for n := 0; n < 4096; n++ {
		u := userName(in.users[n%len(in.users)])
		b := location.Binding{
			Contact: sipmsg.URI{User: u, Host: "127.0.0.1", Port: 40000}, Transport: "UDP", Source: "127.0.0.1:40000",
		}
		i := log.open("location.RegisterContact")
		loc.RegisterContact(sipmsg.URI{User: u, Host: domain}, b, time.Hour, now)
		log.close(i)
	}
}

// replayUserDB times the credential lookups digest verification makes,
// against the store and cache the register replay warmed.
func replayUserDB(log *spanLog, db *userdb.DB, in inputs) {
	for n := 0; n < 4096; n++ {
		u := userName(in.users[n%len(in.users)])
		i := log.open("userdb.Lookup")
		_, _ = db.Lookup(u, domain)
		log.close(i)
	}
}

// writeSpans writes the replay's spans as JSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// wireOf is a message as it would arrive on the wire.
func wireOf(m *sipmsg.Message) []byte { return append([]byte(nil), m.Serialize()...) }
