package sipmsg

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse checks that the parser never panics on arbitrary input and
// that every accepted message survives a serialize→reparse round trip:
// identity, body, and every header must come back intact, and a second
// serialization must be byte-identical to the first (serialization is a
// fixed point of parse∘serialize). Run longer with:
//
//	go test -fuzz=FuzzParse ./internal/sipmsg
func FuzzParse(f *testing.F) {
	f.Add([]byte(sampleInvite))
	f.Add([]byte("SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP a;branch=z9hG4bK1\r\nCSeq: 1 INVITE\r\n\r\n"))
	f.Add([]byte("REGISTER sip:d SIP/2.0\r\nContact: <sip:a@b:5060>\r\nExpires: 60\r\n\r\n"))
	f.Add([]byte("INVITE sip:a@[::1]:5 SIP/2.0\r\nVia: SIP/2.0/TCP [::1];branch=z9hG4bK2\r\n\r\nbody"))
	f.Add([]byte("\r\n\r\n"))
	f.Add([]byte{0x00, 0x0d, 0x0a, 0x0d, 0x0a})
	for _, tc := range tortureAccepted {
		f.Add([]byte(tc.raw))
	}
	for _, tc := range tortureRejected {
		f.Add([]byte(tc.raw))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		out := m.Serialize()
		m2, err := Parse(out)
		if err != nil {
			t.Fatalf("accepted message does not reparse: %v\ninput:  %q\noutput: %q", err, data, out)
		}
		if m2.IsRequest != m.IsRequest || m2.Method != m.Method || m2.StatusCode != m.StatusCode {
			t.Fatalf("round trip changed identity: %+v vs %+v", m, m2)
		}
		if m.IsRequest && m2.RequestURI.String() != m.RequestURI.String() {
			t.Fatalf("round trip changed request URI: %q vs %q", m.RequestURI.String(), m2.RequestURI.String())
		}
		if !bytes.Equal(m2.Body, m.Body) {
			t.Fatalf("round trip changed body: %q vs %q", m.Body, m2.Body)
		}
		if len(m2.Headers) != len(m.Headers) {
			t.Fatalf("round trip changed header count: %d vs %d", len(m.Headers), len(m2.Headers))
		}
		for i := range m.Headers {
			if m2.Headers[i] != m.Headers[i] {
				t.Fatalf("round trip changed header %d: %+v vs %+v", i, m.Headers[i], m2.Headers[i])
			}
		}
		if out2 := m2.Serialize(); !bytes.Equal(out2, out) {
			t.Fatalf("serialization is not a fixed point:\nfirst:  %q\nsecond: %q", out, out2)
		}
		m2.Release()
		m.Release()
	})
}

// FuzzStreamParser checks the TCP framer against arbitrary chunk splits of
// arbitrary bytes: no panics, and whatever messages come out must be
// parseable on their own.
func FuzzStreamParser(f *testing.F) {
	f.Add([]byte(sampleInvite), uint8(3))
	f.Add([]byte("\r\n\r\nINVITE sip:a@b SIP/2.0\r\nContent-Length: 0\r\n\r\n"), uint8(1))
	for _, tc := range tortureAccepted {
		f.Add([]byte(tc.raw), uint8(5))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		step := int(chunk)%7 + 1
		var p StreamParser
		for len(data) > 0 {
			n := step
			if n > len(data) {
				n = len(data)
			}
			p.Feed(data[:n])
			data = data[n:]
			for {
				m, err := p.Next()
				if err != nil {
					break // incomplete or fatal framing error: both fine
				}
				m2, err := Parse(m.Serialize())
				if err != nil {
					t.Fatalf("framed message does not reparse: %v", err)
				}
				m2.Release()
				m.Release()
			}
		}
	})
}

// corpusValues collects every value of the named header from the parse and
// torture corpora, to seed the header-level fuzzers.
func corpusValues(name string) []string {
	raws := []string{sampleInvite}
	for _, tc := range tortureAccepted {
		raws = append(raws, tc.raw)
	}
	for _, tc := range tortureRejected {
		raws = append(raws, tc.raw)
	}
	var out []string
	for _, raw := range raws {
		m, err := Parse([]byte(raw))
		if err != nil {
			continue
		}
		out = append(out, m.GetAll(name)...)
		m.Release()
	}
	return out
}

// legacyParseVia is the map-building Via parser the top-hop view replaced,
// kept as the reference FuzzTopHop compares against.
func legacyParseVia(s string) (Via, error) {
	s = strings.TrimSpace(s)
	var v Via
	rest, ok := strings.CutPrefix(s, "SIP/2.0/")
	if !ok {
		return v, fmt.Errorf("missing SIP/2.0/ prefix")
	}
	sp := strings.IndexAny(rest, " \t")
	if sp < 0 {
		return v, fmt.Errorf("missing sent-by")
	}
	v.Transport = strings.ToUpper(rest[:sp])
	rest = strings.TrimSpace(rest[sp+1:])
	var paramsPart string
	if i := strings.IndexByte(rest, ';'); i >= 0 {
		rest, paramsPart = rest[:i], rest[i+1:]
	}
	host, port, err := splitHostPort(strings.TrimSpace(rest))
	if err != nil {
		return v, err
	}
	v.Host, v.Port = host, port
	v.Params = map[string]string{}
	for _, kv := range strings.Split(paramsPart, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		if i := strings.IndexByte(kv, '='); i >= 0 {
			v.Params[strings.ToLower(kv[:i])] = kv[i+1:]
		} else {
			v.Params[strings.ToLower(kv)] = ""
		}
	}
	return v, nil
}

// FuzzTopHop checks the top-hop view against ParseVia, and both against
// the parser they replaced. The view and ParseVia must accept the same
// values and agree on transport, sent-by and branch. Every value the old
// parser accepted with a transport is still accepted with the same
// transport and sent-by, and with the same branch unless whitespace around
// a parameter's "=" made the old parser misread it.
func FuzzTopHop(f *testing.F) {
	for _, v := range corpusValues("Via") {
		f.Add(v)
	}
	f.Add("SIP/2.0/UDP a.com; branch = z9hG4bK1")
	f.Add("sip/2.0/udp a.com;BRANCH=z9hG4bK1;rport")
	f.Add("SIP / 2.0 / UDP a.com:5060 ;branch=z9hG4bK1;branch=z9hG4bK2")
	f.Add("SIP/2.0/ UDP a.com")
	f.Add("SIP/2.0/TCP [::1]:x;branch")
	f.Fuzz(func(t *testing.T, s string) {
		h, herr := parseHop(s)
		v, verr := ParseVia(s)
		if (herr == nil) != (verr == nil) {
			t.Fatalf("%q: view error %v, ParseVia error %v", s, herr, verr)
		}
		if herr == nil && (h.Transport != v.Transport || h.Host != v.Host || h.Port != v.Port || h.Branch != v.Branch()) {
			t.Fatalf("%q: view %+v, ParseVia %+v", s, h, v)
		}
		old, err := legacyParseVia(s)
		if err != nil || old.Transport == "" {
			return
		}
		if herr != nil {
			t.Fatalf("%q: accepted by the old parser, rejected now: %v", s, herr)
		}
		if h.Transport != old.Transport || h.Host != old.Host || h.Port != old.Port {
			t.Fatalf("%q: view %+v, old parser %+v", s, h, old)
		}
		for k, val := range old.Params {
			if k != strings.TrimSpace(k) || val != strings.TrimSpace(val) {
				return
			}
		}
		if h.Branch != old.Branch() {
			t.Fatalf("%q: branch %q, old parser %q", s, h.Branch, old.Branch())
		}
	})
}

// legacyParseCSeq is the strings.Fields CSeq parser the index scan
// replaced, kept as the reference FuzzCSeq compares against.
func legacyParseCSeq(v string) (uint32, Method, error) {
	fields := strings.Fields(v)
	if len(fields) != 2 {
		return 0, "", fmt.Errorf("malformed CSeq")
	}
	n, err := strconv.ParseUint(fields[0], 10, 32)
	if err != nil {
		return 0, "", err
	}
	return uint32(n), Method(strings.ToUpper(fields[1])), nil
}

// FuzzCSeq checks that ParseCSeq accepts exactly what the strings.Fields
// parser it replaced accepted, with the same sequence number and method.
func FuzzCSeq(f *testing.F) {
	for _, v := range corpusValues("CSeq") {
		f.Add(v)
	}
	f.Add(" 1\tinvite ")
	f.Add("1 INVITE x")
	f.Add("4294967296 BYE")
	f.Add("7 ACK ")
	f.Add("\xff 1")
	f.Fuzz(func(t *testing.T, s string) {
		seq, method, err := ParseCSeq(s)
		oseq, omethod, oerr := legacyParseCSeq(s)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("%q: error %v, old parser error %v", s, err, oerr)
		}
		if seq != oseq || method != omethod {
			t.Fatalf("%q: %d %s, old parser %d %s", s, seq, method, oseq, omethod)
		}
	})
}
