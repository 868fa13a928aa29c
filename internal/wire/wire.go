// Package wire defines the request/response messages exchanged between
// peers — the DHT RPCs of §3.1–3.2 and the Bitswap messages
// (WANT-HAVE / HAVE / WANT-BLOCK / BLOCK) — together with a compact
// varint-framed binary codec used by the TCP transport.
package wire

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/record"
	"repro/internal/varint"
)

// Type enumerates message kinds.
type Type uint8

// Requests.
const (
	TPing          Type = iota + 1
	TFindNode           // DHT: return k closest peers to Key
	TAddProvider        // DHT: store a provider record for Key (CID bytes)
	TGetProviders       // DHT: return providers of Key plus closer peers
	TPutPeerRecord      // DHT: store a signed peer record
	TGetPeerRecord      // DHT: fetch the peer record for Key (PeerID bytes)
	TPutIPNS            // DHT: store an IPNS record under Key
	TGetIPNS            // DHT: fetch the IPNS record under Key
	TWantHave           // Bitswap: does the peer have block Key?
	TWantBlock          // Bitswap: send block Key
	TIdentify           // exchange listen addresses after connecting
	TCrawl              // measurement: dump the peer's k-bucket contents (§4.1)
	TDialBack           // AutoNAT: ask the peer to dial us back (§2.3)
	TRelayReserve       // circuit relay: reserve a forwarding slot at the relay
	TRelay              // circuit relay: forward the inner message (BlockData) to Key's peer
	TGossip             // indexer: anti-entropy push of provider records inside a replica group
)

// Responses.
const (
	TAck Type = iota + 64
	TNodes
	TProviders
	TPeerRecordResp
	TIPNSResp
	THave
	TDontHave
	TBlock
	TError
)

// PeerInfo couples a PeerID with known multiaddresses, the unit the
// DHT returns from lookups.
type PeerInfo struct {
	ID    peer.ID
	Addrs []multiaddr.Multiaddr
}

// Message is the single wire message type; unused fields stay zero.
type Message struct {
	Type      Type
	Key       []byte             // DHT key / binary CID / PeerID
	Keys      [][]byte           // additional record keys of a batched ADD_PROVIDER
	Peers     []PeerInfo         // closer peers (TNodes) or identify addresses
	Providers []PeerInfo         // provider peers (TProviders)
	PeerRec   *record.PeerRecord // signed peer record payload
	IPNSData  []byte             // opaque serialized IPNS record
	BlockData []byte             // block payload (TBlock)
	ErrMsg    string             // error detail (TError)
	Records   []ProviderEntry    // replicated provider records (TGossip)
}

// ProviderEntry is one replicated provider record inside a TGossip
// push: the binary CID, the provider, and the record's original publish
// instant — carried so a replicated copy expires exactly when the
// original does instead of restarting its TTL at the receiving replica.
type ProviderEntry struct {
	Key       []byte // binary CID
	Provider  PeerInfo
	Published time.Time
}

// AllKeys returns the primary key plus the batch tail, skipping empty
// entries — the full record-key list of a (possibly batched)
// ADD_PROVIDER.
func (m Message) AllKeys() [][]byte {
	if len(m.Keys) == 0 {
		if len(m.Key) == 0 {
			return nil
		}
		return [][]byte{m.Key}
	}
	out := make([][]byte, 0, 1+len(m.Keys))
	if len(m.Key) > 0 {
		out = append(out, m.Key)
	}
	return append(out, m.Keys...)
}

// Errors returned by the codec.
var (
	ErrTooLarge  = errors.New("wire: message exceeds size limit")
	ErrMalformed = errors.New("wire: malformed message")
)

// MaxMessageSize bounds a single message (a block of 256 KiB plus
// generous framing headroom).
const MaxMessageSize = 1 << 20

// String names the message type for logs.
func (t Type) String() string {
	switch t {
	case TPing:
		return "PING"
	case TFindNode:
		return "FIND_NODE"
	case TAddProvider:
		return "ADD_PROVIDER"
	case TGetProviders:
		return "GET_PROVIDERS"
	case TPutPeerRecord:
		return "PUT_PEER_RECORD"
	case TGetPeerRecord:
		return "GET_PEER_RECORD"
	case TPutIPNS:
		return "PUT_IPNS"
	case TGetIPNS:
		return "GET_IPNS"
	case TWantHave:
		return "WANT_HAVE"
	case TWantBlock:
		return "WANT_BLOCK"
	case TIdentify:
		return "IDENTIFY"
	case TCrawl:
		return "CRAWL"
	case TDialBack:
		return "DIAL_BACK"
	case TRelayReserve:
		return "RELAY_RESERVE"
	case TRelay:
		return "RELAY"
	case TGossip:
		return "GOSSIP"
	case TAck:
		return "ACK"
	case TNodes:
		return "NODES"
	case TProviders:
		return "PROVIDERS"
	case TPeerRecordResp:
		return "PEER_RECORD"
	case TIPNSResp:
		return "IPNS"
	case THave:
		return "HAVE"
	case TDontHave:
		return "DONT_HAVE"
	case TBlock:
		return "BLOCK"
	case TError:
		return "ERROR"
	}
	return fmt.Sprintf("TYPE(%d)", uint8(t))
}

// ErrorMessage builds a TError response.
func ErrorMessage(format string, args ...interface{}) Message {
	return Message{Type: TError, ErrMsg: fmt.Sprintf(format, args...)}
}

// The encoder is one pass over the message: size gives the exact body
// length and appendTo writes it, so Marshal and WriteFrame each
// allocate one buffer of the final length and copy every field once.
// Each *Len helper below is the length of what the matching append*
// writes.

// bytesLen is the encoded length of a field of n bytes.
func bytesLen(n int) int { return varint.Len(uint64(n)) + n }

// appendBytes writes a varint length followed by the bytes.
func appendBytes(dst, b []byte) []byte {
	dst = varint.Append(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = varint.Append(dst, uint64(len(s)))
	return append(dst, s...)
}

func addrsLen(addrs []multiaddr.Multiaddr) int {
	n := varint.Len(uint64(len(addrs)))
	for _, a := range addrs {
		n += bytesLen(a.BytesLen())
	}
	return n
}

func appendAddrs(dst []byte, addrs []multiaddr.Multiaddr) []byte {
	dst = varint.Append(dst, uint64(len(addrs)))
	for _, a := range addrs {
		dst = varint.Append(dst, uint64(a.BytesLen()))
		dst = a.AppendBytes(dst)
	}
	return dst
}

func peerInfoLen(pi PeerInfo) int {
	return bytesLen(len(pi.ID)) + addrsLen(pi.Addrs)
}

func appendPeerInfo(dst []byte, pi PeerInfo) []byte {
	dst = appendString(dst, string(pi.ID))
	return appendAddrs(dst, pi.Addrs)
}

func peerInfosLen(infos []PeerInfo) int {
	n := varint.Len(uint64(len(infos)))
	for _, pi := range infos {
		n += peerInfoLen(pi)
	}
	return n
}

func appendPeerInfos(dst []byte, infos []PeerInfo) []byte {
	dst = varint.Append(dst, uint64(len(infos)))
	for _, pi := range infos {
		dst = appendPeerInfo(dst, pi)
	}
	return dst
}

// size returns the exact length of the encoded body, len(m.Marshal()).
func (m Message) size() int {
	n := 1 + bytesLen(len(m.Key)) + peerInfosLen(m.Peers) + peerInfosLen(m.Providers) + 1
	if rec := m.PeerRec; rec != nil {
		n += bytesLen(len(rec.ID)) + varint.Len(rec.Seq) +
			bytesLen(len(rec.PublicKey)) + bytesLen(len(rec.Signature)) +
			addrsLen(rec.Addrs) + varint.Len(uint64(rec.Published.UnixNano()))
	}
	n += bytesLen(len(m.IPNSData)) + bytesLen(len(m.BlockData)) + bytesLen(len(m.ErrMsg))
	n += varint.Len(uint64(len(m.Keys)))
	for _, k := range m.Keys {
		n += bytesLen(len(k))
	}
	n += varint.Len(uint64(len(m.Records)))
	for _, r := range m.Records {
		n += bytesLen(len(r.Key)) + varint.Len(1) + peerInfoLen(r.Provider) +
			varint.Len(uint64(r.Published.UnixNano()))
	}
	return n
}

// appendTo appends the encoded body to dst.
func (m Message) appendTo(dst []byte) []byte {
	dst = append(dst, byte(m.Type))
	dst = appendBytes(dst, m.Key)
	dst = appendPeerInfos(dst, m.Peers)
	dst = appendPeerInfos(dst, m.Providers)
	if rec := m.PeerRec; rec != nil {
		dst = append(dst, 1)
		dst = appendString(dst, string(rec.ID))
		dst = varint.Append(dst, rec.Seq)
		dst = appendBytes(dst, rec.PublicKey)
		dst = appendBytes(dst, rec.Signature)
		dst = appendAddrs(dst, rec.Addrs)
		dst = varint.Append(dst, uint64(rec.Published.UnixNano()))
	} else {
		dst = append(dst, 0)
	}
	dst = appendBytes(dst, m.IPNSData)
	dst = appendBytes(dst, m.BlockData)
	dst = appendString(dst, m.ErrMsg)
	dst = varint.Append(dst, uint64(len(m.Keys)))
	for _, k := range m.Keys {
		dst = appendBytes(dst, k)
	}
	dst = varint.Append(dst, uint64(len(m.Records)))
	for _, r := range m.Records {
		dst = appendBytes(dst, r.Key)
		dst = varint.Append(dst, 1) // the provider is a one-entry PeerInfo list
		dst = appendPeerInfo(dst, r.Provider)
		dst = varint.Append(dst, uint64(r.Published.UnixNano()))
	}
	return dst
}

// Marshal encodes the message body (without outer framing).
func (m Message) Marshal() []byte {
	return m.appendTo(make([]byte, 0, m.size()))
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) bytes() ([]byte, error) {
	n, used, err := varint.Decode(r.buf[r.pos:])
	if err != nil {
		return nil, err
	}
	r.pos += used
	if uint64(len(r.buf)-r.pos) < n {
		return nil, ErrMalformed
	}
	out := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

func (r *reader) uvarint() (uint64, error) {
	n, used, err := varint.Decode(r.buf[r.pos:])
	if err != nil {
		return 0, err
	}
	r.pos += used
	return n, nil
}

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrMalformed
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) peerInfos() ([]PeerInfo, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > 4096 {
		return nil, ErrMalformed
	}
	out := make([]PeerInfo, 0, n)
	for i := uint64(0); i < n; i++ {
		idb, err := r.bytes()
		if err != nil {
			return nil, err
		}
		na, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if na > 1024 {
			return nil, ErrMalformed
		}
		pi := PeerInfo{ID: peer.ID(idb)}
		for j := uint64(0); j < na; j++ {
			ab, err := r.bytes()
			if err != nil {
				return nil, err
			}
			a, err := multiaddr.FromBytes(ab)
			if err != nil {
				return nil, err
			}
			pi.Addrs = append(pi.Addrs, a)
		}
		out = append(out, pi)
	}
	return out, nil
}

// Unmarshal decodes a message body.
func Unmarshal(buf []byte) (Message, error) {
	if len(buf) == 0 {
		return Message{}, ErrMalformed
	}
	r := &reader{buf: buf}
	tb, err := r.byte()
	if err != nil {
		return Message{}, err
	}
	m := Message{Type: Type(tb)}
	if m.Key, err = r.bytes(); err != nil {
		return Message{}, fmt.Errorf("%w: key: %v", ErrMalformed, err)
	}
	if len(m.Key) == 0 {
		m.Key = nil
	}
	if m.Peers, err = r.peerInfos(); err != nil {
		return Message{}, fmt.Errorf("%w: peers: %v", ErrMalformed, err)
	}
	if m.Providers, err = r.peerInfos(); err != nil {
		return Message{}, fmt.Errorf("%w: providers: %v", ErrMalformed, err)
	}
	flag, err := r.byte()
	if err != nil {
		return Message{}, err
	}
	if flag == 1 {
		var rec record.PeerRecord
		idb, err := r.bytes()
		if err != nil {
			return Message{}, fmt.Errorf("%w: rec id: %v", ErrMalformed, err)
		}
		rec.ID = peer.ID(idb)
		if rec.Seq, err = r.uvarint(); err != nil {
			return Message{}, fmt.Errorf("%w: rec seq: %v", ErrMalformed, err)
		}
		pk, err := r.bytes()
		if err != nil {
			return Message{}, fmt.Errorf("%w: rec key: %v", ErrMalformed, err)
		}
		rec.PublicKey = ed25519.PublicKey(append([]byte(nil), pk...))
		sig, err := r.bytes()
		if err != nil {
			return Message{}, fmt.Errorf("%w: rec sig: %v", ErrMalformed, err)
		}
		rec.Signature = append([]byte(nil), sig...)
		na, err := r.uvarint()
		if err != nil {
			return Message{}, err
		}
		if na > 1024 {
			return Message{}, ErrMalformed
		}
		for j := uint64(0); j < na; j++ {
			ab, err := r.bytes()
			if err != nil {
				return Message{}, err
			}
			a, err := multiaddr.FromBytes(ab)
			if err != nil {
				return Message{}, err
			}
			rec.Addrs = append(rec.Addrs, a)
		}
		ns, err := r.uvarint()
		if err != nil {
			return Message{}, err
		}
		rec.Published = time.Unix(0, int64(ns))
		m.PeerRec = &rec
	}
	if m.IPNSData, err = r.bytes(); err != nil {
		return Message{}, fmt.Errorf("%w: ipns: %v", ErrMalformed, err)
	}
	if len(m.IPNSData) == 0 {
		m.IPNSData = nil
	}
	if m.BlockData, err = r.bytes(); err != nil {
		return Message{}, fmt.Errorf("%w: block: %v", ErrMalformed, err)
	}
	if len(m.BlockData) == 0 {
		m.BlockData = nil
	}
	eb, err := r.bytes()
	if err != nil {
		return Message{}, fmt.Errorf("%w: err: %v", ErrMalformed, err)
	}
	m.ErrMsg = string(eb)
	nk, err := r.uvarint()
	if err != nil {
		return Message{}, fmt.Errorf("%w: keys: %v", ErrMalformed, err)
	}
	if nk > 4096 {
		return Message{}, ErrMalformed
	}
	for i := uint64(0); i < nk; i++ {
		kb, err := r.bytes()
		if err != nil {
			return Message{}, fmt.Errorf("%w: keys: %v", ErrMalformed, err)
		}
		m.Keys = append(m.Keys, kb)
	}
	nr, err := r.uvarint()
	if err != nil {
		return Message{}, fmt.Errorf("%w: records: %v", ErrMalformed, err)
	}
	if nr > 4096 {
		return Message{}, ErrMalformed
	}
	for i := uint64(0); i < nr; i++ {
		var e ProviderEntry
		if e.Key, err = r.bytes(); err != nil {
			return Message{}, fmt.Errorf("%w: record key: %v", ErrMalformed, err)
		}
		infos, err := r.peerInfos()
		if err != nil || len(infos) != 1 {
			return Message{}, fmt.Errorf("%w: record provider: %v", ErrMalformed, err)
		}
		e.Provider = infos[0]
		ns, err := r.uvarint()
		if err != nil {
			return Message{}, fmt.Errorf("%w: record published: %v", ErrMalformed, err)
		}
		e.Published = time.Unix(0, int64(ns))
		m.Records = append(m.Records, e)
	}
	return m, nil
}

// WriteFrame writes a length-prefixed message to w: the varint body
// length, then the body, encoded straight into one buffer of the frame's
// exact size and handed to w in a single Write.
func WriteFrame(w io.Writer, m Message) error {
	n := m.size()
	if n > MaxMessageSize {
		return ErrTooLarge
	}
	frame := varint.Append(make([]byte, 0, varint.Len(uint64(n))+n), uint64(n))
	_, err := w.Write(m.appendTo(frame))
	return err
}

// ReadFrame reads one length-prefixed message from r. The length is
// checked against MaxMessageSize before anything is allocated; the body
// then lands in an exact-size buffer with one io.ReadFull, which a
// *bufio.Reader with an empty buffer fills straight from its source.
// A body cut short, even right after the header, is io.ErrUnexpectedEOF.
func ReadFrame(r interface {
	io.Reader
	io.ByteReader
}) (Message, error) {
	n, err := varint.ReadUvarint(r)
	if err != nil {
		return Message{}, err
	}
	if n > MaxMessageSize {
		return Message{}, ErrTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, err
	}
	return Unmarshal(buf)
}
