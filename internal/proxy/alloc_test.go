package proxy

import (
	"testing"
	"time"

	"gosip/internal/sipmsg"
	"gosip/internal/userdb"
)

// reparse returns m as a server receives it: parsed from its wire bytes,
// every header a view of one retained head.
func reparse(t *testing.T, m *sipmsg.Message) *sipmsg.Message {
	t.Helper()
	p, err := sipmsg.Parse(append([]byte(nil), m.Serialize()...))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// setTopVia points a callee's response at the Via the proxy pushed on the
// request it answers, as the callee would copy it.
func setTopVia(m *sipmsg.Message, via string) {
	m.Headers[0].Value = via
	m.Invalidate()
}

// forwardedCallAllocs is the measured cost of TestForwardedCallAllocs's
// call; it was 127 before the top-hop view, the CSeq scan and the
// pre-rendered Via. The largest remaining shares are the six Clones (a
// message and its headers each), the transactions' timer entries and
// closures, the four transaction keys and the three pushed Vias; the fake
// sender's host:port strings count too.
const forwardedCallAllocs = 51

// TestForwardedCallAllocs pins the server side of one forwarded call over
// the in-memory engine: INVITE → 180 → 200 → ACK → BYE → 200, stateful
// over an unreliable transport with the client timers armed, then every
// transaction expired through the manual timer list so each run starts
// from the same table. The messages are parsed once up front; each run
// only points the callee's responses at the Via the proxy just pushed.
func TestForwardedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	s, timer := &fakeSender{}, &fakeSender{}
	v.engine.SetTimerSender(timer)

	inv := reparse(t, invite(0, 1))
	// The callee answers the forwarded request, which carries the proxy's
	// Via above the caller's; each run fills in the branch.
	fwd := inv.Clone()
	fwd.Prepend("Via", "SIP/2.0/UDP 127.0.0.1:5060;branch=z9hG4bKset-per-run")
	ringing := reparse(t, sipmsg.NewResponse(fwd, sipmsg.StatusRinging, "callee"))
	ok := reparse(t, sipmsg.NewResponse(fwd, sipmsg.StatusOK, "callee"))
	caller := sipmsg.Via{Transport: "UDP", Host: "10.0.0.1", Port: 5071}
	ack := reparse(t, sipmsg.NewAck(inv, ok, caller))
	from, _ := inv.Get("From")
	to, _ := ok.Get("To")
	fromNA, _ := sipmsg.ParseNameAddr(from)
	toNA, _ := sipmsg.ParseNameAddr(to)
	bye := reparse(t, sipmsg.NewRequest(sipmsg.RequestSpec{
		Method:     sipmsg.BYE,
		RequestURI: sipmsg.URI{User: userdb.UserName(1), Host: "test.dom"},
		From:       fromNA,
		To:         toNA,
		CallID:     inv.CallID(),
		CSeq:       2,
		Via:        caller,
	}))
	byeOK := reparse(t, sipmsg.NewResponse(fwd, sipmsg.StatusOK, "callee"))
	byeOK.Set("CSeq", "2 BYE")

	far := time.Now().Add(24 * time.Hour)
	call := func() {
		s.toOrigin, s.toAddr = s.toOrigin[:0], s.toAddr[:0]
		timer.toOrigin, timer.toAddr = timer.toOrigin[:0], timer.toAddr[:0]
		v.engine.Handle(s, inv, "caller")
		via, _ := s.toAddr[0].msg.Get("Via")
		setTopVia(ringing, via)
		setTopVia(ok, via)
		v.engine.Handle(s, ringing, nil)
		v.engine.Handle(s, ok, nil)
		v.engine.Handle(s, ack, "caller")
		v.engine.Handle(s, bye, "caller")
		via, _ = s.toAddr[2].msg.Get("Via")
		setTopVia(byeOK, via)
		v.engine.Handle(s, byeOK, nil)
		v.timers.CheckNow(far)
	}
	call()
	if got := len(s.toOrigin); got != 4 {
		t.Fatalf("upstream got %d messages, want 100, 180, 200, 200", got)
	}
	if got := len(s.toAddr); got != 3 {
		t.Fatalf("downstream got %d messages, want INVITE, ACK, BYE", got)
	}
	if n := v.txns.Len(); n != 0 {
		t.Fatalf("%d transactions left after the timers ran", n)
	}
	if got := testing.AllocsPerRun(200, call); got > forwardedCallAllocs {
		t.Errorf("a forwarded call allocates %.0f times, want <= %d", got, forwardedCallAllocs)
	}
}
