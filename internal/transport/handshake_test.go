package transport

import (
	"context"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/peer"
	"repro/internal/wire"
)

// TestTCPSilentDialerDropped: a peer that connects and never sends its
// hello is disconnected once handshakeTimeout passes, while a
// connection that completed its handshake stays usable past that
// instant. The test waits out the real timeout, so it runs in parallel.
func TestTCPSilentDialerDropped(t *testing.T) {
	t.Parallel()
	a, err := ListenTCP(peer.MustNewIdentity(rand.New(rand.NewSource(1))), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(peer.MustNewIdentity(rand.New(rand.NewSource(2))), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetHandler(func(_ context.Context, _ peer.ID, req wire.Message) wire.Message {
		return wire.Message{Type: wire.TAck, Key: req.Key}
	})

	_, hostport, err := b.Addrs()[0].DialInfo()
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", hostport)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	conn, err := a.Dial(context.Background(), b.LocalPeer(), b.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	start := time.Now()
	silent.SetReadDeadline(start.Add(handshakeTimeout + 5*time.Second))
	if _, err := silent.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent dialer: read err = %v after %v, want io.EOF from the listener closing it",
			err, time.Since(start).Round(time.Millisecond))
	}
	if waited := time.Since(start); waited < handshakeTimeout-time.Second {
		t.Errorf("silent dialer dropped after %v, before the %v handshake timeout", waited, handshakeTimeout)
	}

	// The handshaken connection outlived the handshake deadline.
	resp, err := conn.Request(context.Background(), wire.Message{Type: wire.TPing, Key: []byte("late")})
	if err != nil || string(resp.Key) != "late" {
		t.Errorf("request after the handshake deadline: resp=%+v err=%v", resp, err)
	}
	b.mu.RLock()
	open := len(b.conns)
	b.mu.RUnlock()
	if open != 1 {
		t.Errorf("listener tracks %d connections, want 1 (the handshaken one)", open)
	}
}
