package evpath

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"flexio/internal/flight"
	"flexio/internal/shm"
)

// tcpPair spins up a serving Net with a listener on contact and a client
// Net resolving that contact to the server's address, then opens one
// channel. Cleanup tears both transports down.
func tcpPair(t *testing.T, contact string) (client, server *Net, dialer Conn, accepted Conn) {
	t.Helper()
	return tcpPairTLS(t, contact, nil, nil, nil)
}

// tcpPairTLS is tcpPair over a TLS link when the two configs are non-nil,
// with the client Net tuned by cliTCP (nil for defaults).
func tcpPairTLS(t *testing.T, contact string, srvCfg, cliCfg *tls.Config, cliTCP *TCPConfig) (client, server *Net, dialer Conn, accepted Conn) {
	t.Helper()
	server = NewNet(nil)
	adv, err := server.ServeTCP("127.0.0.1:0", srvCfg)
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	lst, err := server.Listen(contact)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client = NewNet(cliTCP)
	client.SetResolver(func(string) (string, error) { return adv, nil })
	if cliCfg != nil {
		client.SetClientTLS(func(string) *tls.Config { return cliCfg })
	}
	t.Cleanup(func() { client.CloseTCP(); server.CloseTCP() })

	got := make(chan Conn, 1)
	go func() {
		c, ok := lst.Accept()
		if ok {
			got <- c
		}
	}()
	dialer, err = client.Dial(contact, TCPTransport, 0, 0)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	select {
	case accepted = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	return client, server, dialer, accepted
}

// TestTCPRoundTrip sends codec-encoded records both ways across a real
// socket pair and checks they decode identically on the far side.
func TestTCPRoundTrip(t *testing.T) {
	_, _, a, b := tcpPair(t, "svc.e1.r0")
	if a.Transport() != "tcp" || b.Transport() != "tcp" {
		t.Fatalf("Transport() = %q/%q, want tcp", a.Transport(), b.Transport())
	}

	rec := Record{
		"step":    int64(42),
		"field":   "temperature",
		"payload": bytes.Repeat([]byte{0xAB}, 4096),
	}
	enc, err := Encode(rec)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	if err := a.Send(enc); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	dec, err := Decode(got)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if v, _ := dec.GetInt("step"); v != 42 {
		t.Fatalf("step = %d, want 42", v)
	}
	if !bytes.Equal(enc, got) {
		t.Fatal("encoded record not byte-identical across the socket")
	}

	// Reverse direction on the same channel.
	if err := b.Send([]byte("pong")); err != nil {
		t.Fatalf("reverse Send: %v", err)
	}
	if m, err := a.Recv(); err != nil || string(m) != "pong" {
		t.Fatalf("reverse Recv = %q, %v", m, err)
	}

	// Orderly close: peer drains, then sees EOF.
	if err := a.Send([]byte("last")); err != nil {
		t.Fatalf("Send before close: %v", err)
	}
	a.Close()
	if m, err := b.Recv(); err != nil || string(m) != "last" {
		t.Fatalf("drain after close = %q, %v", m, err)
	}
	if _, err := b.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("Recv after close = %v, want io.EOF", err)
	}
}

// TestTCPManyChannelsOneSocket multiplexes several channels over the
// pooled link and checks per-channel ordering and isolation.
func TestTCPManyChannelsOneSocket(t *testing.T) {
	server := NewNet(nil)
	adv, err := server.ServeTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	client := NewNet(nil)
	client.SetResolver(func(string) (string, error) { return adv, nil })
	t.Cleanup(func() { client.CloseTCP(); server.CloseTCP() })

	const chans, msgs = 4, 50
	var wg sync.WaitGroup
	for i := 0; i < chans; i++ {
		contact := fmt.Sprintf("mux.e1.r%d", i)
		lst, err := server.Listen(contact)
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		wg.Add(1)
		go func(i int, lst *Listener) {
			defer wg.Done()
			c, ok := lst.Accept()
			if !ok {
				t.Errorf("ch%d: accept failed", i)
				return
			}
			for k := 0; k < msgs; k++ {
				m, err := c.Recv()
				if err != nil {
					t.Errorf("ch%d: recv %d: %v", i, k, err)
					return
				}
				want := fmt.Sprintf("ch%d-msg%d", i, k)
				if string(m) != want {
					t.Errorf("ch%d: got %q, want %q", i, m, want)
					return
				}
			}
		}(i, lst)
	}
	conns := make([]Conn, chans)
	for i := range conns {
		c, err := client.Dial(fmt.Sprintf("mux.e1.r%d", i), TCPTransport, 0, 0)
		if err != nil {
			t.Fatalf("Dial ch%d: %v", i, err)
		}
		conns[i] = c
	}
	if got := client.TCPStatsSnapshot().Dials; got != 1 {
		t.Fatalf("dials = %d, want 1 (channels must share the pooled link)", got)
	}
	for k := 0; k < msgs; k++ {
		for i, c := range conns {
			if err := c.Send([]byte(fmt.Sprintf("ch%d-msg%d", i, k))); err != nil {
				t.Fatalf("send ch%d msg%d: %v", i, k, err)
			}
		}
	}
	wg.Wait()
}

// TestFramePartialReads drives the frame decoder through a reader that
// yields one byte at a time: reassembly must be byte-exact.
func TestFramePartialReads(t *testing.T) {
	key := chanKey{dialer: 0xDEAD, id: 7}
	payload := bytes.Repeat([]byte("fragment"), 100)
	wire := appendFrame(nil, opData, key, payload)
	wire = appendFrame(wire, opClose, key, nil) // second frame back-to-back

	r := iotest.OneByteReader(bytes.NewReader(wire))
	f1, err := readFrame(r, DefaultMaxFrame, nil)
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if f1.op != opData || f1.dialer != key.dialer || f1.chanID != key.id || !bytes.Equal(f1.payload, payload) {
		t.Fatalf("first frame mismatch: op=%d dialer=%x chan=%x len=%d", f1.op, f1.dialer, f1.chanID, len(f1.payload))
	}
	f2, err := readFrame(r, DefaultMaxFrame, nil)
	if err != nil {
		t.Fatalf("second frame: %v", err)
	}
	if f2.op != opClose || len(f2.payload) != 0 {
		t.Fatalf("second frame mismatch: op=%d len=%d", f2.op, len(f2.payload))
	}
	if _, err := readFrame(r, DefaultMaxFrame, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: %v, want EOF", err)
	}

	// A frame truncated mid-payload must surface ErrUnexpectedEOF, never
	// a short payload.
	trunc := appendFrame(nil, opData, key, payload)[:4+frameHeaderLen+10]
	if _, err := readFrame(bytes.NewReader(trunc), DefaultMaxFrame, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v, want ErrUnexpectedEOF", err)
	}
}

// TestTCPSelfDial is the property every in-process cross-node pair rests
// on: one Net serving loopback and resolving to itself dials its own
// contact over a real socket pair, a message crosses each way, and
// CloseTCP leaves no goroutine behind.
func TestTCPSelfDial(t *testing.T) {
	base := runtime.NumGoroutine()
	n := NewNet(nil)
	if err := n.ServeLoopback(); err != nil {
		t.Fatalf("ServeLoopback: %v", err)
	}
	lst, err := n.Listen("self.e1.r0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	got := make(chan Conn, 1)
	go func() {
		if c, ok := lst.Accept(); ok {
			got <- c
		}
	}()
	a, err := n.Dial("self.e1.r0", TCPTransport, 0, 1)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	var b Conn
	select {
	case b = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	if a.Transport() != "tcp" || b.Transport() != "tcp" {
		t.Fatalf("transports %q/%q, want tcp", a.Transport(), b.Transport())
	}
	for _, hop := range []struct {
		from, to Conn
		msg      string
	}{{a, b, "ping"}, {b, a, "pong"}} {
		if err := hop.from.Send([]byte(hop.msg)); err != nil {
			t.Fatalf("send %s: %v", hop.msg, err)
		}
		m, err := hop.to.Recv()
		if err != nil || string(m) != hop.msg {
			t.Fatalf("recv = %q, %v; want %q", m, err, hop.msg)
		}
	}
	if s := n.TCPStatsSnapshot(); s.Dials != 1 || s.Accepts != 1 {
		t.Fatalf("dials=%d accepts=%d, want one socket pair", s.Dials, s.Accepts)
	}

	a.Close()
	b.Close()
	lst.Close()
	n.CloseTCP()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > base %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPOversizedFrame checks both directions of the size limit: the
// send path refuses locally, and a hostile peer announcing an oversized
// frame gets hung up on.
func TestTCPOversizedFrame(t *testing.T) {
	server := NewNet(&TCPConfig{MaxFrame: 1 << 10})
	adv, err := server.ServeTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	if _, err := server.Listen("small.e1.r0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client := NewNet(&TCPConfig{MaxFrame: 1 << 10})
	client.SetResolver(func(string) (string, error) { return adv, nil })
	t.Cleanup(func() { client.CloseTCP(); server.CloseTCP() })

	c, err := client.Dial("small.e1.r0", TCPTransport, 0, 0)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := c.Send(make([]byte, 2<<10)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized Send = %v, want ErrFrameTooLarge", err)
	}

	// Hostile peer: raw socket announcing a 1 GiB frame. The server must
	// reject it at the header (no allocation) and hang up.
	raw, err := net.Dial("tcp", strings.TrimPrefix(adv, "tcp://"))
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer raw.Close()
	var hdr [4 + frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(frameHeaderLen+(1<<30)))
	hdr[4] = opData
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatalf("raw write: %v", err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept an oversized-frame connection open")
	}
	if got := server.TCPStatsSnapshot().ProtoErrs; got == 0 {
		t.Fatal("oversized frame not counted as a protocol error")
	}
}

// TestTCPRedialBackoff is the fault-injection satellite: an injected
// mid-stream disconnect plus injected dial failures force the transport
// through its backoff ladder, and every message must still arrive
// exactly once, in order. Run under -race in `make ci`.
func TestTCPRedialBackoff(t *testing.T) {
	client, _, a, b := tcpPairTLS(t, "flaky.e1.r0", nil, nil,
		&TCPConfig{RedialBase: 5 * time.Millisecond, RedialMax: 50 * time.Millisecond})
	client.InjectTCPFaults(TCPFaults{
		DropAfterSends: 3, // cut the link under the 3rd data send
		FailDials:      2, // then refuse the first two redials
		SendLatency:    100 * time.Microsecond,
	})

	const total = 10
	recvErr := make(chan error, 1)
	go func() {
		for k := 0; k < total; k++ {
			m, err := b.Recv()
			if err != nil {
				recvErr <- fmt.Errorf("recv %d: %w", k, err)
				return
			}
			if want := fmt.Sprintf("msg-%d", k); string(m) != want {
				recvErr <- fmt.Errorf("recv %d = %q, want %q", k, m, want)
				return
			}
		}
		recvErr <- nil
	}()
	for k := 0; k < total; k++ {
		if err := a.Send([]byte(fmt.Sprintf("msg-%d", k))); err != nil {
			t.Fatalf("send %d: %v", k, err)
		}
	}
	if err := <-recvErr; err != nil {
		t.Fatal(err)
	}

	s := client.TCPStatsSnapshot()
	if s.Drops != 1 {
		t.Fatalf("drops = %d, want 1", s.Drops)
	}
	if s.Redials < 3 {
		t.Fatalf("redials = %d, want >= 3 (2 injected dial failures + 1 success)", s.Redials)
	}
	if s.Resumes < 1 {
		t.Fatalf("resumes = %d, want >= 1", s.Resumes)
	}
}

// TestTCPDialFallthrough: a non-TCP kind with no local listener falls
// through to the wire when a resolver is installed — how cross-process
// coordinator dials reach remote ranks without core changes.
func TestTCPDialFallthrough(t *testing.T) {
	server := NewNet(nil)
	adv, err := server.ServeTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	if _, err := server.Listen("remote.coord"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client := NewNet(nil)
	client.SetResolver(func(string) (string, error) { return adv, nil })
	t.Cleanup(func() { client.CloseTCP(); server.CloseTCP() })

	c, err := client.Dial("remote.coord", ChanTransport, 0, 0)
	if err != nil {
		t.Fatalf("fallthrough Dial: %v", err)
	}
	if c.Transport() != "tcp" {
		t.Fatalf("Transport() = %q, want tcp", c.Transport())
	}

	// Unknown contact with a failing resolver keeps the ErrPeerUnknown
	// surface the in-process path has.
	client2 := NewNet(nil)
	if _, err := client2.Dial("nowhere", ChanTransport, 0, 0); !errors.Is(err, ErrPeerUnknown) {
		t.Fatalf("no-resolver Dial = %v, want ErrPeerUnknown", err)
	}
}

// TestTCPListenerWait: a dial that races the peer's Listen succeeds when
// the listener appears within the accept-wait window.
func TestTCPListenerWait(t *testing.T) {
	server := NewNet(nil)
	adv, err := server.ServeTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	client := NewNet(nil)
	client.SetResolver(func(string) (string, error) { return adv, nil })
	t.Cleanup(func() { client.CloseTCP(); server.CloseTCP() })

	go func() {
		time.Sleep(50 * time.Millisecond)
		lst, err := server.Listen("late.e2.r0")
		if err != nil {
			return
		}
		if c, ok := lst.Accept(); ok {
			c.Send([]byte("here")) //nolint:errcheck
		}
	}()
	c, err := client.Dial("late.e2.r0", TCPTransport, 0, 0)
	if err != nil {
		t.Fatalf("Dial racing Listen: %v", err)
	}
	if m, err := c.Recv(); err != nil || string(m) != "here" {
		t.Fatalf("Recv = %q, %v", m, err)
	}

	// A contact that never appears is rejected after the wait.
	if _, err := client.Dial("never.e1.r0", TCPTransport, 0, 0); err == nil {
		t.Fatal("Dial to unlistened contact succeeded")
	}
}

// selfSignedTLS builds an ephemeral ed25519 self-signed server config
// and the client config that pins it — the same shape flexnode publishes
// through the directory.
func selfSignedTLS(t *testing.T) (*tls.Config, *tls.Config) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatalf("ed25519: %v", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "flexio-test"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     []string{"flexio-test"},
		IPAddresses:  []net.IP{net.IPv4(127, 0, 0, 1)},
		IsCA:         true, BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, pub, priv)
	if err != nil {
		t.Fatalf("CreateCertificate: %v", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatalf("ParseCertificate: %v", err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)
	srv := &tls.Config{Certificates: []tls.Certificate{{Certificate: [][]byte{der}, PrivateKey: priv}}}
	cli := &tls.Config{RootCAs: pool, ServerName: "flexio-test"}
	return srv, cli
}

// TestTCPTLS round-trips over a TLS link with a pinned self-signed cert.
func TestTCPTLS(t *testing.T) {
	srvCfg, cliCfg := selfSignedTLS(t)
	server := NewNet(nil)
	adv, err := server.ServeTCP("127.0.0.1:0", srvCfg)
	if err != nil {
		t.Fatalf("ServeTCP(tls): %v", err)
	}
	if !strings.HasPrefix(adv, "tls://") {
		t.Fatalf("advertised %q, want tls:// prefix", adv)
	}
	lst, err := server.Listen("secure.e1.r0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client := NewNet(nil)
	client.SetResolver(func(string) (string, error) { return adv, nil })
	client.SetClientTLS(func(string) *tls.Config { return cliCfg })
	t.Cleanup(func() { client.CloseTCP(); server.CloseTCP() })

	go func() {
		if c, ok := lst.Accept(); ok {
			if m, err := c.Recv(); err == nil {
				c.Send(append([]byte("echo:"), m...)) //nolint:errcheck
			}
		}
	}()
	c, err := client.Dial("secure.e1.r0", TCPTransport, 0, 0)
	if err != nil {
		t.Fatalf("Dial over TLS: %v", err)
	}
	if err := c.Send([]byte("secret")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if m, err := c.Recv(); err != nil || string(m) != "echo:secret" {
		t.Fatalf("Recv = %q, %v", m, err)
	}

	// Without a client hook the TLS peer is unreachable.
	bare := NewNet(nil)
	bare.SetResolver(func(string) (string, error) { return adv, nil })
	t.Cleanup(func() { bare.CloseTCP() })
	if _, err := bare.Dial("secure.e1.r0", TCPTransport, 0, 0); err == nil {
		t.Fatal("TLS dial without client hook succeeded")
	}
}

// TestTCPJournalAndWireOverhead: wire sends/recvs appear as Step -1
// transport events with framing-inclusive byte attribution, and the
// channel advertises its overhead through WireConn.
func TestTCPJournalAndWireOverhead(t *testing.T) {
	client, server, a, b := tcpPair(t, "journaled.e1.r0")
	j := flight.NewJournal(0)
	client.SetJournal(j)
	jr := flight.NewJournal(0)
	server.SetJournal(jr)

	wc, ok := a.(WireConn)
	if !ok {
		t.Fatal("tcp conn does not implement WireConn")
	}
	if wc.WireOverhead() != FrameOverhead {
		t.Fatalf("WireOverhead = %d, want %d", wc.WireOverhead(), FrameOverhead)
	}

	msg := make([]byte, 100)
	if err := a.Send(msg); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatalf("Recv: %v", err)
	}

	var sendOK, recvOK bool
	for _, ev := range j.Snapshot() {
		if ev.Point == "tcp.send" && ev.Step == -1 && ev.Bytes == int64(len(msg)+FrameOverhead) {
			sendOK = true
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for !recvOK && time.Now().Before(deadline) {
		for _, ev := range jr.Snapshot() {
			if ev.Point == "tcp.recv" && ev.Step == -1 && ev.Bytes == int64(len(msg)+FrameOverhead) {
				recvOK = true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sendOK || !recvOK {
		t.Fatalf("journal coverage: send=%v recv=%v", sendOK, recvOK)
	}
	s := client.TCPStatsSnapshot()
	if s.BytesTX < uint64(len(msg)+FrameOverhead) || s.MsgsTX < 1 {
		t.Fatalf("stats: bytesTX=%d msgsTX=%d", s.BytesTX, s.MsgsTX)
	}
}

// FuzzFrameDecode fuzzes the frame decoder, reading data payloads into a
// receive pool as demux does: arbitrary bytes must never panic or make
// the pool hand out more than the frame limit, a frame that fails to read
// (truncated, oversized, corrupt) must leave no buffer checked out, and
// every frame the encoder emits must decode back to itself.
func FuzzFrameDecode(f *testing.F) {
	key := chanKey{dialer: 1, id: 2}
	f.Add(appendFrame(nil, opData, key, []byte("payload")))
	f.Add(appendFrame(nil, opOpen, key, []byte("contact.e1.r0")))
	f.Add(appendFrame(nil, opClose, key, nil))
	f.Add(appendFrame(nil, opData, key, bytes.Repeat([]byte("x"), 300))[:100]) // truncated mid-payload
	f.Add(appendFrameHeader(nil, opData, key, 1<<20))                          // announces more than max
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const max = 1 << 16
		pool := shm.NewBufferPool(0)
		fr, err := readFrame(bytes.NewReader(data), max, pool)
		st := pool.Stats()
		if st.HighWater > max {
			t.Fatalf("pool lent %d bytes for one frame, limit %d", st.HighWater, max)
		}
		if err != nil {
			if st.BytesInUse != 0 {
				t.Fatalf("failed read (%v) left %d pool bytes checked out", err, st.BytesInUse)
			}
			return
		}
		if len(fr.payload) > max {
			t.Fatalf("decoded payload %d exceeds max %d", len(fr.payload), max)
		}
		if pooled := fr.op == opData && len(fr.payload) > 0; pooled != (st.BytesInUse > 0) {
			t.Fatalf("op %d with %d payload bytes: pool has %d bytes checked out", fr.op, len(fr.payload), st.BytesInUse)
		}
		// Round-trip: re-encoding the decoded frame must reproduce the
		// consumed prefix exactly.
		reenc := appendFrame(nil, fr.op, chanKey{dialer: fr.dialer, id: fr.chanID}, fr.payload)
		if !bytes.Equal(reenc, data[:len(reenc)]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", reenc, data[:len(reenc)])
		}
	})
}
