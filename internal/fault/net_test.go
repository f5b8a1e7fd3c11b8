package fault

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer is a minimal TCP backend: every connection is echoed until
// EOF. Returns the address and a stop function.
func echoServer(t *testing.T) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				_, _ = io.Copy(c, c)
			}()
		}
	}()
	return ln.Addr().String(), func() { _ = ln.Close(); wg.Wait() }
}

// roundTrip dials the proxy, writes msg, half-closes, and reads the
// reply until EOF.
func roundTrip(addr string, msg []byte) ([]byte, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Write(msg); err != nil {
		return nil, err
	}
	if t, ok := c.(*net.TCPConn); ok {
		_ = t.CloseWrite()
	}
	return io.ReadAll(c)
}

func TestProxyTransparent(t *testing.T) {
	backend, stop := echoServer(t)
	defer stop()
	p, err := NewProxy("127.0.0.1:0", backend, NetConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	msg := bytes.Repeat([]byte("tmerge"), 100)
	got, err := roundTrip(p.Addr(), msg)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: got %d bytes, want %d", len(got), len(msg))
	}
	// The client can finish reading before serve counts the connection
	// as forwarded (after both pipes close); Close waits for serve.
	p.Close()
	if c := p.Counters(); c.Forwarded != 1 || c.Conns != 1 {
		t.Fatalf("counters = %+v, want 1 conn forwarded", c)
	}
}

// TestProxyRetarget pins the restart scenario: the proxy endpoint stays
// stable while the backend behind it is replaced — new connections reach
// the new backend.
func TestProxyRetarget(t *testing.T) {
	a, stopA := echoServer(t)
	p, err := NewProxy("127.0.0.1:0", a, NetConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if got, err := roundTrip(p.Addr(), []byte("one")); err != nil || string(got) != "one" {
		t.Fatalf("via backend a: %q, %v", got, err)
	}
	stopA() // backend "crashes"
	// The proxy closes the client connection when the dial fails, which
	// the client sees as a reset or as a clean zero-byte EOF; either way
	// nothing is echoed.
	if got, err := roundTrip(p.Addr(), []byte("gone")); err == nil && len(got) > 0 {
		t.Fatalf("round trip with dead backend echoed %q", got)
	}
	b, stopB := echoServer(t)
	defer stopB()
	p.SetBackend(b)
	if got, err := roundTrip(p.Addr(), []byte("two")); err != nil || string(got) != "two" {
		t.Fatalf("via backend b: %q, %v", got, err)
	}
}

// TestProxyFaultsFire drives enough connections through an aggressive
// fault profile that every fault class provably fires, and checks that
// clean connections still echo correctly — faults corrupt delivery,
// never content.
func TestProxyFaultsFire(t *testing.T) {
	backend, stop := echoServer(t)
	defer stop()
	p, err := NewProxy("127.0.0.1:0", backend, NetConfig{
		Seed:      7,
		DropRate:  0.25,
		StallRate: 0.15, StallFor: 10 * time.Millisecond,
		TruncateRate: 0.25, TruncateAfter: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	msg := bytes.Repeat([]byte("x"), 256) // larger than any truncation budget
	okConns := 0
	for i := 0; i < 60; i++ {
		got, err := roundTrip(p.Addr(), msg)
		if err == nil && bytes.Equal(got, msg) {
			okConns++
		} else if err == nil && len(got) == len(msg) {
			t.Fatalf("conn %d: reply corrupted, not truncated: %q", i, got)
		}
	}
	c := p.Counters()
	if c.Dropped == 0 || c.Stalled == 0 || c.Truncated == 0 {
		t.Fatalf("not every fault class fired: %+v", c)
	}
	if okConns == 0 || c.Forwarded == 0 {
		t.Fatalf("no clean connection survived: ok=%d counters=%+v", okConns, c)
	}
	if c.Conns != 60 {
		t.Fatalf("conns = %d, want 60", c.Conns)
	}
}
