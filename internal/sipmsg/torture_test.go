package sipmsg

import (
	"strings"
	"testing"
)

// Torture cases in the spirit of RFC 4475: syntactically legal but awkward
// messages the parser must accept, and near-misses it must reject. Each
// accepted case also survives a serialize→reparse round trip. The corpus is
// package-level so the fuzzers can seed from it.
type tortureCase struct {
	name  string
	raw   string
	check func(t *testing.T, m *Message)
}

var tortureAccepted = []tortureCase{
	{
		name: "display name with comma and semicolon",
		raw: "INVITE sip:bob@b.example SIP/2.0\r\n" +
			"Via: SIP/2.0/UDP a.example;branch=z9hG4bK1\r\n" +
			"From: \"Watson, come here; now\" <sip:a@a.example>;tag=x\r\n" +
			"To: <sip:bob@b.example>\r\n" +
			"Call-ID: t1\r\nCSeq: 1 INVITE\r\n\r\n",
		check: func(t *testing.T, m *Message) {
			na, err := ParseNameAddr(mustGet(t, m, "From"))
			if err != nil {
				t.Fatalf("From: %v", err)
			}
			if na.Display != "Watson, come here; now" {
				t.Errorf("display = %q", na.Display)
			}
		},
	},
	{
		name: "extreme whitespace around colon",
		raw: "OPTIONS sip:b@b.example SIP/2.0\r\n" +
			"Via: SIP/2.0/UDP a.example;branch=z9hG4bK2\r\n" +
			"From: <sip:a@a.example>;tag=x\r\n" +
			"To: <sip:b@b.example>\r\n" +
			"Call-ID:    spaced-out   \r\n" +
			"CSeq: 9 OPTIONS\r\n\r\n",
		check: func(t *testing.T, m *Message) {
			if m.CallID() != "spaced-out" {
				t.Errorf("Call-ID = %q", m.CallID())
			}
		},
	},
	{
		name: "mixed-case method-adjacent headers",
		raw: "REGISTER sip:b.example SIP/2.0\r\n" +
			"vIa: SIP/2.0/UDP a.example;branch=z9hG4bK3\r\n" +
			"fRoM: <sip:a@a.example>;tag=x\r\n" +
			"tO: <sip:a@a.example>\r\n" +
			"CALL-ID: mixed\r\n" +
			"cseq: 2 REGISTER\r\n\r\n",
		check: func(t *testing.T, m *Message) {
			if _, ok := m.Get("Via"); !ok {
				t.Error("mixed-case Via lost")
			}
			seq, method, err := m.CSeq()
			if err != nil || seq != 2 || method != REGISTER {
				t.Errorf("CSeq = %d %s (%v)", seq, method, err)
			}
		},
	},
	{
		name: "unknown headers preserved in order",
		raw: "BYE sip:b@b.example SIP/2.0\r\n" +
			"Via: SIP/2.0/UDP a.example;branch=z9hG4bK4\r\n" +
			"From: <sip:a@a.example>;tag=x\r\n" +
			"To: <sip:b@b.example>;tag=y\r\n" +
			"Call-ID: u1\r\nCSeq: 3 BYE\r\n" +
			"X-Asserted-Thing: one\r\n" +
			"P-Custom: two\r\n" +
			"X-Asserted-Thing: three\r\n\r\n",
		check: func(t *testing.T, m *Message) {
			got := m.GetAll("X-Asserted-Thing")
			if len(got) != 2 || got[0] != "one" || got[1] != "three" {
				t.Errorf("unknown header values = %v", got)
			}
		},
	},
	{
		name: "ipv6 request-uri and via",
		raw: "INVITE sip:bob@[2001:db8::10]:5070 SIP/2.0\r\n" +
			"Via: SIP/2.0/TCP [2001:db8::9]:5061;branch=z9hG4bK5\r\n" +
			"From: <sip:a@a.example>;tag=x\r\n" +
			"To: <sip:bob@[2001:db8::10]>\r\n" +
			"Call-ID: v6\r\nCSeq: 1 INVITE\r\n\r\n",
		check: func(t *testing.T, m *Message) {
			if m.RequestURI.Host != "[2001:db8::10]" || m.RequestURI.Port != 5070 {
				t.Errorf("R-URI = %+v", m.RequestURI)
			}
			via, err := m.TopVia()
			if err != nil || via.Host != "[2001:db8::9]" || via.Port != 5061 {
				t.Errorf("Via = %+v (%v)", via, err)
			}
		},
	},
	{
		name: "body with CRLFs that look like headers",
		raw: "INVITE sip:b@b.example SIP/2.0\r\n" +
			"Via: SIP/2.0/UDP a.example;branch=z9hG4bK6\r\n" +
			"From: <sip:a@a.example>;tag=x\r\n" +
			"To: <sip:b@b.example>\r\n" +
			"Call-ID: body1\r\nCSeq: 1 INVITE\r\n" +
			"Content-Length: 34\r\n\r\n" +
			"Fake-Header: not a header\r\nv=0\r\n\r\n",
		check: func(t *testing.T, m *Message) {
			if _, ok := m.Get("Fake-Header"); ok {
				t.Error("body content parsed as header")
			}
			if !strings.HasPrefix(string(m.Body), "Fake-Header") {
				t.Errorf("body = %q", m.Body)
			}
		},
	},
	{
		name: "whitespace around the branch equals sign",
		raw: "OPTIONS sip:b@b.example SIP/2.0\r\n" +
			"Via: SIP/2.0/UDP a.example; branch = z9hG4bK7\r\n" +
			"From: <sip:a@a.example>;tag=x\r\n" +
			"To: <sip:b@b.example>\r\n" +
			"Call-ID: ws1\r\nCSeq: 1 OPTIONS\r\n\r\n",
		check: checkTopHop("UDP", "a.example", 0, "z9hG4bK7"),
	},
	{
		name: "lower-case sent-protocol",
		raw: "OPTIONS sip:b@b.example SIP/2.0\r\n" +
			"Via: sip/2.0/udp a.example:5070;branch=z9hG4bK8\r\n" +
			"From: <sip:a@a.example>;tag=x\r\n" +
			"To: <sip:b@b.example>\r\n" +
			"Call-ID: ws2\r\nCSeq: 1 OPTIONS\r\n\r\n",
		check: checkTopHop("UDP", "a.example", 5070, "z9hG4bK8"),
	},
	{
		name: "whitespace around sent-protocol slashes",
		raw: "OPTIONS sip:b@b.example SIP/2.0\r\n" +
			"Via: SIP / 2.0 / TCP a.example;branch=z9hG4bK9\r\n" +
			"From: <sip:a@a.example>;tag=x\r\n" +
			"To: <sip:b@b.example>\r\n" +
			"Call-ID: ws3\r\nCSeq: 1 OPTIONS\r\n\r\n",
		check: checkTopHop("TCP", "a.example", 0, "z9hG4bK9"),
	},
	{
		// The Via of RFC 4475 §3.1.1.1 ("wsinv"): folded across lines
		// with whitespace on both sides of each slash.
		name: "folded Via from the wsinv torture message",
		raw: "INVITE sip:vivekg@chair-dnrc.example.com SIP/2.0\r\n" +
			"Via  : SIP  /   2.0\r\n /UDP\r\n    192.0.2.2;branch=390skdjuw\r\n" +
			"From: <sip:a@a.example>;tag=x\r\n" +
			"To: <sip:vivekg@chair-dnrc.example.com>\r\n" +
			"Call-ID: ws4\r\nCSeq: 0009\r\n  INVITE\r\n\r\n",
		check: func(t *testing.T, m *Message) {
			checkTopHop("UDP", "192.0.2.2", 0, "390skdjuw")(t, m)
			if seq, method, err := m.CSeq(); err != nil || seq != 9 || method != INVITE {
				t.Errorf("CSeq = %d %s (%v)", seq, method, err)
			}
		},
	},
}

// checkTopHop checks the top Via through both the view and ParseVia, and
// that the branch keys a transaction.
func checkTopHop(transport, host string, port int, branch string) func(*testing.T, *Message) {
	return func(t *testing.T, m *Message) {
		t.Helper()
		top, err := m.TopHop()
		if err != nil || top.Transport != transport || top.Host != host || top.Port != port || top.Branch != branch {
			t.Errorf("TopHop = %+v (%v), want %s %s:%d branch %q", top, err, transport, host, port, branch)
		}
		via, err := m.TopVia()
		if err != nil || via.Transport != transport || via.Host != host || via.Port != port || via.Branch() != branch {
			t.Errorf("TopVia = %+v (%v), want %s %s:%d branch %q", via, err, transport, host, port, branch)
		}
		if key, err := m.TransactionKey(); err != nil || !strings.HasPrefix(key, branch+"|") {
			t.Errorf("TransactionKey = %q (%v)", key, err)
		}
	}
}

func TestTortureAccepted(t *testing.T) {
	for _, tc := range tortureAccepted {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Parse([]byte(tc.raw))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			tc.check(t, m)
			// Round trip.
			m2, err := Parse(m.Serialize())
			if err != nil {
				t.Fatalf("reparse: %v", err)
			}
			tc.check(t, m2)
		})
	}
}

func mustGet(t *testing.T, m *Message, name string) string {
	t.Helper()
	v, ok := m.Get(name)
	if !ok {
		t.Fatalf("missing %s", name)
	}
	return v
}

var tortureRejected = []struct {
	name string
	raw  string
}{
	{"LF-only line endings treated as one giant start line", "INVITE sip:a@b SIP/2.0\nVia: x\n\n"},
	{"content length not a number", "INVITE sip:a@b SIP/2.0\r\nContent-Length: 4four\r\n\r\nabcd"},
	{"empty method", " sip:a@b SIP/2.0\r\n\r\n"},
	{"version garbage", "INVITE sip:a@b SIP/2.0beta\r\n\r\n"},
	{"header name with spaces", "INVITE sip:a@b SIP/2.0\r\nBad Header : x\r\n\r\n"},
}

func TestTortureRejected(t *testing.T) {
	for _, tc := range tortureRejected {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse([]byte(tc.raw)); err == nil {
				t.Errorf("accepted: %q", tc.raw)
			}
		})
	}
}

// Header name with spaces is actually two words before a colon; the parser
// must reject it rather than mis-split. (Checked above; this case pins the
// canonicalName behaviour for hyphenated unknowns.)
func TestCanonicalNameUnknownHyphenated(t *testing.T) {
	m := &Message{}
	m.Set("x-cUSTOM-hEADER", "v")
	if _, ok := m.Get("X-Custom-Header"); !ok {
		t.Error("hyphenated canonicalization failed")
	}
	m.Set("weird--name", "v2")
	if _, ok := m.Get("Weird--Name"); !ok {
		t.Error("empty segment canonicalization failed")
	}
}
