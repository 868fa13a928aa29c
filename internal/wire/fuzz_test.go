package wire

import (
	"bufio"
	"bytes"
	"runtime"
	"testing"

	"repro/internal/varint"
)

// decodeSlack bounds what Unmarshal may allocate beyond the frame
// buffer on a fuzz-sized input: the PeerInfo lists it sizes from their
// (capped) claimed counts before reading the entries.
const decodeSlack = 1 << 20

// FuzzReadFrame feeds arbitrary bytes to ReadFrame. It must not panic,
// must refuse a header above MaxMessageSize before allocating for it,
// and every frame it accepts must re-frame and decode to an equal
// message. The seed corpus runs as a plain test.
func FuzzReadFrame(f *testing.F) {
	for _, c := range codecMessages() {
		if c.name != "block-256KiB" {
			f.Add(frameOf(f, c.m))
		}
	}
	sample := frameOf(f, sampleMessage())
	f.Add(sample[:len(sample)/2])                               // truncated body
	f.Add(sample[:1])                                           // header only
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})                 // huge header
	f.Add(varint.Encode(MaxMessageSize + 1))                    // just over the limit
	f.Add(append(varint.Encode(MaxMessageSize), 0x01, 0x00))    // at the limit, body missing
	f.Add([]byte{0x80, 0x00})                                   // non-minimal header
	f.Add([]byte{0x03, byte(TPing), 0x80, 0x00})                // non-minimal key length
	f.Add([]byte{0x04, byte(TNodes), 0x00, 0xff, 0x7f})         // peer count past the cap
	f.Add([]byte{0x0a, byte(TPing), 0, 0, 0, 2, 0, 0, 0, 0, 0}) // unknown PeerRec flag

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxMessageSize+decodeSlack {
			t.Fatalf("ReadFrame allocated %d bytes for a %d-byte input", grew, len(data))
		}
		if n, _, herr := varint.Decode(data); herr == nil && n > MaxMessageSize && err != ErrTooLarge {
			t.Fatalf("header %d above MaxMessageSize: err = %v, want ErrTooLarge", n, err)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("re-frame accepted message: %v", err)
		}
		back, err := ReadFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("decode re-framed message: %v", err)
		}
		if !messagesEqual(m, back) {
			t.Fatalf("re-framed message differs:\n  first:  %+v\n  second: %+v", m, back)
		}
	})
}
