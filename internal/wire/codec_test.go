package wire

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/multiaddr"
	"repro/internal/record"
	"repro/internal/varint"
)

type namedMessage struct {
	name string
	m    Message
}

// codecMessages are the message shapes the frame codec carries on the
// hot paths: a full block, closer-peer lists, signed peer records,
// batched provider keys and gossip records.
func codecMessages() []namedMessage {
	p1, p2, p3 := testIdentity(1), testIdentity(2), testIdentity(3)
	addr := multiaddr.MustParse("/ip4/10.1.2.3/tcp/4001/p2p/" + p3.ID.String())
	rec := record.NewPeerRecord(p3, []multiaddr.Multiaddr{
		multiaddr.MustParse("/ip4/10.1.2.3/tcp/4001"),
		multiaddr.MustParse("/dns4/node.example/tcp/443/ws"),
	}, 42, time.Unix(0, 1_650_000_000_000_000_000))

	block := make([]byte, 256*1024)
	for i := range block {
		block[i] = byte(i * 7)
	}
	var nodes []PeerInfo
	for i := 0; i < 20; i++ {
		id := testIdentity(int64(10 + i)).ID
		nodes = append(nodes, PeerInfo{ID: id, Addrs: []multiaddr.Multiaddr{
			multiaddr.MustParse("/ip4/192.0.2.1/tcp/4001/p2p/" + id.String()),
		}})
	}
	return []namedMessage{
		{"sample", sampleMessage()},
		{"ping", Message{Type: TPing}},
		{"error", ErrorMessage("no record for %s", "abc")},
		{"block-256KiB", Message{Type: TBlock, Key: []byte{0x01, 0x55, 0x12, 0x20, 0x01}, BlockData: block}},
		{"nodes-20", Message{Type: TNodes, Key: bytes.Repeat([]byte{9}, 34), Peers: nodes}},
		{"peer-record", Message{Type: TPeerRecordResp, Key: []byte(p3.ID), PeerRec: &rec}},
		{"batched-keys", Message{
			Type:      TAddProvider,
			Key:       []byte{0x01, 0x55, 0x12, 0x02, 0xa0},
			Keys:      [][]byte{{0x01, 0x55, 0x12, 0x02, 0xa1}, {0x01, 0x55, 0x12, 0x02, 0xa2}, {}},
			Providers: []PeerInfo{{ID: p1.ID, Addrs: []multiaddr.Multiaddr{addr}}},
		}},
		{"gossip", Message{Type: TGossip, Records: []ProviderEntry{
			{Key: []byte{0x01, 0x55, 0x12, 0x02, 0x01}, Provider: PeerInfo{ID: p1.ID, Addrs: []multiaddr.Multiaddr{addr}},
				Published: time.Unix(0, 1_700_000_000_000_000_000)},
			{Key: []byte{0x01, 0x55, 0x12, 0x02, 0x02}, Provider: PeerInfo{ID: p2.ID},
				Published: time.Unix(0, 1_700_000_001_000_000_000)},
		}}},
	}
}

func frameOf(t testing.TB, m Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrameLayout pins the frame layout: varint(len(body)) ++ body, with
// size() giving the exact body length the encoder writes.
func TestFrameLayout(t *testing.T) {
	for _, c := range codecMessages() {
		body := c.m.Marshal()
		if got := c.m.size(); got != len(body) {
			t.Errorf("%s: size() = %d, len(Marshal()) = %d", c.name, got, len(body))
		}
		if cap(body) != len(body) {
			t.Errorf("%s: Marshal buffer cap %d for %d bytes", c.name, cap(body), len(body))
		}
		want := append(varint.Encode(uint64(len(body))), body...)
		if got := frameOf(t, c.m); !bytes.Equal(got, want) {
			t.Errorf("%s: WriteFrame differs from varint(len(Marshal())) ++ Marshal()", c.name)
		}
	}
}

// TestFrameBytesPinned pins the wire format byte for byte, so a change
// to the encoder cannot alter what goes on the wire unnoticed.
func TestFrameBytesPinned(t *testing.T) {
	want := map[string]string{
		"sample":       "15d5f6dbbfd9aa747b7d9a308d2e9141a9717f70b24c1488810daa459a75f397",
		"ping":         "1aff28e44da744a46e38fadc044a18e946c4d0ea3e8a4682290e4c9fecb5677b",
		"error":        "ae0a526083a8d2621ae2cce49f9a6f1789af3ceb57913f729c47b5c2fd206307",
		"block-256KiB": "02d46520ae4a250b5d9ac8969c51d4b5620b3b5ac1089317d9cd79b7d925bff0",
		"nodes-20":     "cbd878a02bdb84be882a24f8774b7367478365f862cca7cba9cecc86dedb3ade",
		"peer-record":  "fae8e1ad62043183b5e1db577c8907164ad8ed30b7cdcdb7042a079f3c4822b3",
		"batched-keys": "d306fd0572670ffd55fea505754116ebb1c104d148755a0dc9734627cd00d8d5",
		"gossip":       "1bf5b4d1df28540130a6fd19b8e5e8fd96889f4815918943fb1a7d3177a26cdd",
	}
	for _, c := range codecMessages() {
		sum := sha256.Sum256(frameOf(t, c.m))
		if got := hex.EncodeToString(sum[:]); got != want[c.name] {
			t.Errorf("%s: frame sha256 = %s, want %s", c.name, got, want[c.name])
		}
	}
}

func TestReadFrameTruncated(t *testing.T) {
	for _, c := range codecMessages() {
		frame := frameOf(t, c.m)
		header := len(frame) - c.m.size()
		for _, cut := range []struct {
			where string
			n     int
		}{
			{"header boundary", header},
			{"mid-body", header + (len(frame)-header)/2},
			{"one byte short", len(frame) - 1},
		} {
			_, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame[:cut.n])))
			if err != io.ErrUnexpectedEOF {
				t.Errorf("%s cut at %s (%d of %d bytes): err = %v, want io.ErrUnexpectedEOF",
					c.name, cut.where, cut.n, len(frame), err)
			}
		}
	}
}

// TestReadFrameShortReads reads a stream of frames through sources that
// return fewer bytes than asked for, so the body read must loop.
func TestReadFrameShortReads(t *testing.T) {
	msgs := codecMessages()
	var stream []byte
	for _, c := range msgs {
		stream = append(stream, frameOf(t, c.m)...)
	}
	for _, src := range []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"OneByteReader", iotest.OneByteReader},
		{"HalfReader", iotest.HalfReader},
		{"DataErrReader", iotest.DataErrReader},
	} {
		r := bufio.NewReader(src.wrap(bytes.NewReader(stream)))
		for _, c := range msgs {
			got, err := ReadFrame(r)
			if err != nil {
				t.Fatalf("%s: %s: %v", src.name, c.name, err)
			}
			if !messagesEqual(c.m, got) {
				t.Errorf("%s: %s: round trip mismatch", src.name, c.name)
			}
		}
		if _, err := ReadFrame(r); err != io.EOF {
			t.Errorf("%s: read past the last frame: err = %v, want io.EOF", src.name, err)
		}
	}
}

// TestWriteFrameOneAlloc holds the encoder to a single allocation, the
// frame buffer, for a full block.
func TestWriteFrameOneAlloc(t *testing.T) {
	var block Message
	for _, c := range codecMessages() {
		if c.name == "block-256KiB" {
			block = c.m
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := WriteFrame(io.Discard, block); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("WriteFrame(TBlock) = %v allocs, want 1", allocs)
	}
}
