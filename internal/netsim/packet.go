// Package netsim simulates the device-visible IP network: TCP endpoints with
// congestion control and retransmission, UDP-based DNS, token-bucket traffic
// shaping and policing (the carrier throttling mechanisms of §7.5), and the
// plumbing that routes device traffic through a cellular bearer to content
// servers.
//
// Packets carry real IPv4/TCP/UDP wire bytes: the pcap capture and the RLC
// segmentation both operate on genuine header+payload serializations, so the
// analyzer's flow extraction and IP-to-RLC long-jump mapping work on the
// same information a real tcpdump/QxDM deployment would see.
package netsim

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Proto is the IP protocol number of a simulated packet.
type Proto uint8

// Wire protocol numbers (the real IANA values, so pcap output is standard).
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	}
	return fmt.Sprintf("Proto(%d)", uint8(p))
}

// Endpoint is one side of a flow: an IPv4 address and port.
type Endpoint struct {
	Addr netip.Addr
	Port uint16
}

func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// FlowKey identifies a flow by its 4-tuple, direction-sensitive.
type FlowKey struct {
	Src, Dst Endpoint
	Proto    Proto
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey { return FlowKey{Src: k.Dst, Dst: k.Src, Proto: k.Proto} }

// Canonical returns a direction-insensitive key (smaller endpoint first) for
// grouping both directions of a conversation.
func (k FlowKey) Canonical() FlowKey {
	a, b := k.Src, k.Dst
	if less(b, a) {
		a, b = b, a
	}
	return FlowKey{Src: a, Dst: b, Proto: k.Proto}
}

func less(a, b Endpoint) bool {
	if c := a.Addr.Compare(b.Addr); c != 0 {
		return c < 0
	}
	return a.Port < b.Port
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s %s > %s", k.Proto, k.Src, k.Dst)
}

// TCP header flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
)

// Packet is one simulated IP datagram. TCP/UDP specific fields are only
// meaningful for the corresponding Proto.
type Packet struct {
	Src, Dst Endpoint
	Proto    Proto

	// TCP fields.
	Seq, Ack uint32
	Flags    uint8
	Window   uint16

	// Application payload (TCP segment data or UDP datagram body).
	Payload []byte
}

// Key returns the packet's flow key.
func (p *Packet) Key() FlowKey { return FlowKey{Src: p.Src, Dst: p.Dst, Proto: p.Proto} }

const (
	ipv4HeaderLen = 20
	tcpHeaderLen  = 20
	udpHeaderLen  = 8
)

// WireLen returns the packet's on-the-wire size in bytes.
func (p *Packet) WireLen() int {
	switch p.Proto {
	case ProtoTCP:
		return ipv4HeaderLen + tcpHeaderLen + len(p.Payload)
	case ProtoUDP:
		return ipv4HeaderLen + udpHeaderLen + len(p.Payload)
	}
	return ipv4HeaderLen + len(p.Payload)
}

// Marshal serializes the packet as a real IPv4+TCP/UDP wire frame. The IP
// header checksum is computed; transport checksums are zero (tcpdump accepts
// that, and nothing in the simulation corrupts bytes).
func (p *Packet) Marshal() []byte { return p.MarshalAppend(nil) }

// MarshalAppend appends the packet's wire frame to dst (which may be nil or
// a recycled buffer resliced to zero length) and returns the extended slice.
func (p *Packet) MarshalAppend(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, p.WireLen())...)
	buf := dst[start:]
	total := len(buf)
	// IPv4 header.
	buf[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(buf[2:], uint16(total))
	buf[8] = 64 // TTL
	buf[9] = uint8(p.Proto)
	srcA := p.Src.Addr.As4()
	dstA := p.Dst.Addr.As4()
	copy(buf[12:16], srcA[:])
	copy(buf[16:20], dstA[:])
	binary.BigEndian.PutUint16(buf[10:], ipChecksum(buf[:ipv4HeaderLen]))

	switch p.Proto {
	case ProtoTCP:
		t := buf[ipv4HeaderLen:]
		binary.BigEndian.PutUint16(t[0:], p.Src.Port)
		binary.BigEndian.PutUint16(t[2:], p.Dst.Port)
		binary.BigEndian.PutUint32(t[4:], p.Seq)
		binary.BigEndian.PutUint32(t[8:], p.Ack)
		t[12] = (tcpHeaderLen / 4) << 4 // data offset
		t[13] = p.Flags
		binary.BigEndian.PutUint16(t[14:], p.Window)
		copy(t[tcpHeaderLen:], p.Payload)
	case ProtoUDP:
		u := buf[ipv4HeaderLen:]
		binary.BigEndian.PutUint16(u[0:], p.Src.Port)
		binary.BigEndian.PutUint16(u[2:], p.Dst.Port)
		binary.BigEndian.PutUint16(u[4:], uint16(udpHeaderLen+len(p.Payload)))
		copy(u[udpHeaderLen:], p.Payload)
	}
	return dst
}

// Unmarshal parses a wire frame produced by Marshal (or any plain
// IPv4+TCP/UDP frame without IP options).
func Unmarshal(buf []byte) (*Packet, error) {
	if len(buf) < ipv4HeaderLen {
		return nil, fmt.Errorf("netsim: frame too short (%d bytes)", len(buf))
	}
	if buf[0]>>4 != 4 {
		return nil, fmt.Errorf("netsim: not IPv4 (version %d)", buf[0]>>4)
	}
	ihl := int(buf[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(buf) < ihl {
		return nil, fmt.Errorf("netsim: bad IHL %d", ihl)
	}
	total := int(binary.BigEndian.Uint16(buf[2:]))
	if total > len(buf) {
		return nil, fmt.Errorf("netsim: truncated frame: total %d > %d", total, len(buf))
	}
	if total < ihl {
		return nil, fmt.Errorf("netsim: total length %d below header length %d", total, ihl)
	}
	p := &Packet{Proto: Proto(buf[9])}
	p.Src.Addr = netip.AddrFrom4([4]byte(buf[12:16]))
	p.Dst.Addr = netip.AddrFrom4([4]byte(buf[16:20]))
	body := buf[ihl:total]
	switch p.Proto {
	case ProtoTCP:
		if len(body) < tcpHeaderLen {
			return nil, fmt.Errorf("netsim: short TCP header")
		}
		p.Src.Port = binary.BigEndian.Uint16(body[0:])
		p.Dst.Port = binary.BigEndian.Uint16(body[2:])
		p.Seq = binary.BigEndian.Uint32(body[4:])
		p.Ack = binary.BigEndian.Uint32(body[8:])
		off := int(body[12]>>4) * 4
		if off < tcpHeaderLen || off > len(body) {
			return nil, fmt.Errorf("netsim: bad TCP data offset %d", off)
		}
		p.Flags = body[13]
		p.Window = binary.BigEndian.Uint16(body[14:])
		p.Payload = append([]byte(nil), body[off:]...)
	case ProtoUDP:
		if len(body) < udpHeaderLen {
			return nil, fmt.Errorf("netsim: short UDP header")
		}
		p.Src.Port = binary.BigEndian.Uint16(body[0:])
		p.Dst.Port = binary.BigEndian.Uint16(body[2:])
		p.Payload = append([]byte(nil), body[udpHeaderLen:]...)
	default:
		p.Payload = append([]byte(nil), body...)
	}
	return p, nil
}

// ipChecksum computes the standard Internet checksum over hdr with its
// checksum field zeroed.
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 {
			continue // checksum field
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Clone returns a deep copy of the packet.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Payload = append([]byte(nil), p.Payload...)
	return &q
}
