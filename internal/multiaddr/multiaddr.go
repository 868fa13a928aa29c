// Package multiaddr implements Multiaddresses (§2.2, Figure 2):
// self-describing, human-readable, hierarchically-separated sequences of
// protocol choices that describe an endpoint, e.g.
//
//	/ip4/1.2.3.4/tcp/3333/p2p/QmZyWQ14...
//
// The extensible path syntax lets nodes know in advance whether they
// share a transport with a remote peer, and supports relaying by
// prefixing peer addresses (/p2p-circuit).
package multiaddr

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"

	"repro/internal/multibase"
	"repro/internal/varint"
)

// Protocol codes, from the canonical multiaddr protocol table.
const (
	CodeIP4        = 4
	CodeTCP        = 6
	CodeDNS4       = 54
	CodeIP6        = 41
	CodeUDP        = 273
	CodeQUIC       = 460
	CodeWS         = 477
	CodeP2P        = 421
	CodeP2PCircuit = 290
)

// Component is one protocol segment of a multiaddress.
type Component struct {
	Code  int    // protocol code
	Name  string // protocol name as it appears in the path
	Value string // textual value ("" for value-less protocols like ws)
}

// Multiaddr is a parsed multiaddress: an ordered list of components.
type Multiaddr struct {
	comps []Component
}

// ErrInvalid is returned for malformed multiaddresses.
var ErrInvalid = errors.New("multiaddr: invalid")

type protoSpec struct {
	code     int
	hasValue bool
	validate func(string) error
}

var protocols = map[string]protoSpec{
	"ip4": {CodeIP4, true, func(v string) error {
		ip := net.ParseIP(v)
		if ip == nil || ip.To4() == nil {
			return fmt.Errorf("bad ip4 %q", v)
		}
		return nil
	}},
	"ip6": {CodeIP6, true, func(v string) error {
		ip := net.ParseIP(v)
		if ip == nil || ip.To4() != nil {
			return fmt.Errorf("bad ip6 %q", v)
		}
		return nil
	}},
	"dns4": {CodeDNS4, true, func(v string) error {
		if v == "" {
			return fmt.Errorf("empty dns4 name")
		}
		return nil
	}},
	"tcp":  {CodeTCP, true, validatePort},
	"udp":  {CodeUDP, true, validatePort},
	"quic": {CodeQUIC, false, nil},
	"ws":   {CodeWS, false, nil},
	"p2p": {CodeP2P, true, func(v string) error {
		if v == "" {
			return fmt.Errorf("empty p2p id")
		}
		return nil
	}},
	"p2p-circuit": {CodeP2PCircuit, false, nil},
}

var codeToName = func() map[int]string {
	m := make(map[int]string, len(protocols))
	for name, spec := range protocols {
		m[spec.code] = name
	}
	return m
}()

func validatePort(v string) error {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 || n > 65535 {
		return fmt.Errorf("bad port %q", v)
	}
	return nil
}

// Parse parses the text form of a multiaddress.
func Parse(s string) (Multiaddr, error) {
	if s == "" || s[0] != '/' {
		return Multiaddr{}, fmt.Errorf("%w: must begin with '/': %q", ErrInvalid, s)
	}
	parts := strings.Split(s[1:], "/")
	var m Multiaddr
	for i := 0; i < len(parts); i++ {
		name := parts[i]
		spec, ok := protocols[name]
		if !ok {
			return Multiaddr{}, fmt.Errorf("%w: unknown protocol %q", ErrInvalid, name)
		}
		var value string
		if spec.hasValue {
			i++
			if i >= len(parts) {
				return Multiaddr{}, fmt.Errorf("%w: protocol %q requires a value", ErrInvalid, name)
			}
			value = parts[i]
			if spec.validate != nil {
				if err := spec.validate(value); err != nil {
					return Multiaddr{}, fmt.Errorf("%w: %v", ErrInvalid, err)
				}
			}
		}
		m.comps = append(m.comps, Component{Code: spec.code, Name: name, Value: value})
	}
	if len(m.comps) == 0 {
		return Multiaddr{}, fmt.Errorf("%w: empty", ErrInvalid)
	}
	return m, nil
}

// MustParse is Parse for literals in tests and examples; it panics on error.
func MustParse(s string) Multiaddr {
	m, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return m
}

// String renders the canonical text form.
func (m Multiaddr) String() string {
	var b strings.Builder
	for _, c := range m.comps {
		b.WriteByte('/')
		b.WriteString(c.Name)
		if protocols[c.Name].hasValue {
			b.WriteByte('/')
			b.WriteString(c.Value)
		}
	}
	return b.String()
}

// Components returns a copy of the component list.
func (m Multiaddr) Components() []Component {
	return append([]Component(nil), m.comps...)
}

// Defined reports whether the multiaddress has at least one component.
func (m Multiaddr) Defined() bool { return len(m.comps) > 0 }

// Equal reports whether two multiaddresses are identical.
func (m Multiaddr) Equal(o Multiaddr) bool { return m.String() == o.String() }

// Value returns the value of the first component with the given
// protocol name, and whether it was present.
func (m Multiaddr) Value(name string) (string, bool) {
	for _, c := range m.comps {
		if c.Name == name {
			return c.Value, true
		}
	}
	return "", false
}

// Has reports whether the address contains the given protocol.
func (m Multiaddr) Has(name string) bool {
	_, ok := m.Value(name)
	return ok
}

// PeerID returns the trailing /p2p/<id> component value, if any.
func (m Multiaddr) PeerID() (string, bool) { return m.Value("p2p") }

// Encapsulate appends o's components to m, e.g. turning
// /ip4/1.2.3.4/tcp/3333 into /ip4/1.2.3.4/tcp/3333/p2p/Qm....
func (m Multiaddr) Encapsulate(o Multiaddr) Multiaddr {
	return Multiaddr{comps: append(append([]Component(nil), m.comps...), o.comps...)}
}

// Decapsulate removes the suffix beginning at the first occurrence of
// o's leading protocol; it returns m unchanged if o does not occur.
func (m Multiaddr) Decapsulate(o Multiaddr) Multiaddr {
	if len(o.comps) == 0 {
		return m
	}
	for i, c := range m.comps {
		if c.Code == o.comps[0].Code && c.Value == o.comps[0].Value {
			return Multiaddr{comps: append([]Component(nil), m.comps[:i]...)}
		}
	}
	return m
}

// Relay builds a relayed address: relay's address, /p2p-circuit, then
// the target /p2p component — the prefixing construct §2.2 describes for
// proxying messages to peers that cannot be contacted directly.
func Relay(relay Multiaddr, targetPeer string) Multiaddr {
	circuit := Multiaddr{comps: []Component{{Code: CodeP2PCircuit, Name: "p2p-circuit"}}}
	target := Multiaddr{comps: []Component{{Code: CodeP2P, Name: "p2p", Value: targetPeer}}}
	return relay.Encapsulate(circuit).Encapsulate(target)
}

// IsRelay reports whether the address routes through a relay.
func (m Multiaddr) IsRelay() bool { return m.Has("p2p-circuit") }

// DialInfo extracts the network ("tcp") and host:port a dialer should
// use, if the address has an IP/TCP (or DNS4/TCP) prefix.
func (m Multiaddr) DialInfo() (network, hostport string, err error) {
	var host, port string
	for _, c := range m.comps {
		switch c.Code {
		case CodeIP4, CodeIP6, CodeDNS4:
			host = c.Value
		case CodeTCP:
			port = c.Value
		}
	}
	if host == "" || port == "" {
		return "", "", fmt.Errorf("%w: no dialable ip/tcp component in %s", ErrInvalid, m)
	}
	return "tcp", net.JoinHostPort(host, port), nil
}

// Bytes returns the binary form: for each component a varint protocol
// code, then for valued protocols a varint length and the value bytes.
func (m Multiaddr) Bytes() []byte {
	return m.AppendBytes(nil)
}

// AppendBytes appends the binary form of Bytes to dst.
func (m Multiaddr) AppendBytes(dst []byte) []byte {
	for _, c := range m.comps {
		dst = varint.Append(dst, uint64(c.Code))
		if protocols[c.Name].hasValue {
			dst = varint.Append(dst, uint64(len(c.Value)))
			dst = append(dst, c.Value...)
		}
	}
	return dst
}

// BytesLen returns len(m.Bytes()) without encoding.
func (m Multiaddr) BytesLen() int {
	n := 0
	for _, c := range m.comps {
		n += varint.Len(uint64(c.Code))
		if protocols[c.Name].hasValue {
			n += varint.Len(uint64(len(c.Value))) + len(c.Value)
		}
	}
	return n
}

// FromBytes parses the binary form produced by Bytes.
func FromBytes(raw []byte) (Multiaddr, error) {
	var m Multiaddr
	for len(raw) > 0 {
		code, n, err := varint.Decode(raw)
		if err != nil {
			return Multiaddr{}, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		raw = raw[n:]
		name, ok := codeToName[int(code)]
		if !ok {
			return Multiaddr{}, fmt.Errorf("%w: unknown protocol code %d", ErrInvalid, code)
		}
		var value string
		if protocols[name].hasValue {
			l, n, err := varint.Decode(raw)
			if err != nil {
				return Multiaddr{}, fmt.Errorf("%w: %v", ErrInvalid, err)
			}
			raw = raw[n:]
			if uint64(len(raw)) < l {
				return Multiaddr{}, fmt.Errorf("%w: truncated value", ErrInvalid)
			}
			value = string(raw[:l])
			raw = raw[l:]
		}
		m.comps = append(m.comps, Component{Code: int(code), Name: name, Value: value})
	}
	if len(m.comps) == 0 {
		return Multiaddr{}, fmt.Errorf("%w: empty", ErrInvalid)
	}
	return m, nil
}

// ForPeer builds the canonical /ip4/<ip>/tcp/<port>/p2p/<peerID> address
// of Figure 2.
func ForPeer(ip string, port int, peerID string) Multiaddr {
	return MustParse(fmt.Sprintf("/ip4/%s/tcp/%d/p2p/%s", ip, port, peerID))
}

// Multibase renders the binary form in the given multibase, used when
// embedding addresses in records.
func (m Multiaddr) Multibase(e multibase.Encoding) string {
	return multibase.MustEncode(e, m.Bytes())
}
