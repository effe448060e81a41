package netsim

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func ep(a string, port uint16) Endpoint {
	return Endpoint{Addr: netip.MustParseAddr(a), Port: port}
}

func TestPacketMarshalRoundtripTCP(t *testing.T) {
	p := &Packet{
		Src: ep("10.0.0.2", 40001), Dst: ep("31.13.70.1", 443),
		Proto: ProtoTCP, Seq: 12345, Ack: 6789,
		Flags: FlagPSH | FlagACK, Window: 0xffff,
		Payload: []byte("hello facebook"),
	}
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != p.Src || got.Dst != p.Dst || got.Proto != p.Proto ||
		got.Seq != p.Seq || got.Ack != p.Ack || got.Flags != p.Flags ||
		got.Window != p.Window || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestPacketMarshalRoundtripUDP(t *testing.T) {
	p := &Packet{
		Src: ep("10.0.0.2", 5353), Dst: ep("8.8.8.8", 53),
		Proto: ProtoUDP, Payload: []byte{1, 2, 3, 4, 5},
	}
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != p.Src || got.Dst != p.Dst || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

func TestWireLenMatchesMarshal(t *testing.T) {
	p := &Packet{Src: ep("1.2.3.4", 1), Dst: ep("5.6.7.8", 2), Proto: ProtoTCP, Payload: make([]byte, 100)}
	if got := len(p.Marshal()); got != p.WireLen() {
		t.Fatalf("WireLen %d != marshal %d", p.WireLen(), got)
	}
}

func TestIPChecksumValid(t *testing.T) {
	p := &Packet{Src: ep("10.0.0.2", 1), Dst: ep("10.0.0.3", 2), Proto: ProtoTCP}
	wire := p.Marshal()
	// Recomputing the checksum over the header including the checksum field
	// must give 0 (standard Internet checksum property: sum incl. its own
	// complement folds to 0xffff, whose complement is 0).
	var sum uint32
	for i := 0; i+1 < ipv4HeaderLen; i += 2 {
		sum += uint32(wire[i])<<8 | uint32(wire[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	if ^uint16(sum) != 0 {
		t.Fatalf("IP header checksum invalid: folded sum %#x", sum)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 10), // too short
		append([]byte{0x65}, make([]byte, 19)...),           // IPv6 version nibble
		append([]byte{0x45, 0, 0, 16}, make([]byte, 16)...), // total length below IHL
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: Unmarshal accepted bad frame", i)
		}
	}
}

func TestUnmarshalTruncatedTCP(t *testing.T) {
	p := &Packet{Src: ep("1.1.1.1", 1), Dst: ep("2.2.2.2", 2), Proto: ProtoTCP, Payload: []byte("xyz")}
	wire := p.Marshal()
	if _, err := Unmarshal(wire[:ipv4HeaderLen+5]); err == nil {
		t.Fatal("accepted truncated TCP header")
	}
}

func TestFlowKeyReverseCanonical(t *testing.T) {
	k := FlowKey{Src: ep("10.0.0.2", 40001), Dst: ep("31.13.70.1", 443), Proto: ProtoTCP}
	r := k.Reverse()
	if r.Src != k.Dst || r.Dst != k.Src {
		t.Fatalf("Reverse wrong: %v", r)
	}
	if k.Canonical() != r.Canonical() {
		t.Fatal("Canonical not direction-insensitive")
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{Src: ep("1.1.1.1", 1), Dst: ep("2.2.2.2", 2), Proto: ProtoTCP, Payload: []byte{1, 2}}
	q := p.Clone()
	q.Payload[0] = 9
	if p.Payload[0] == 9 {
		t.Fatal("Clone shares payload")
	}
}

// Property: marshal/unmarshal roundtrips for arbitrary TCP packets.
func TestQuickMarshalRoundtrip(t *testing.T) {
	f := func(srcIP, dstIP [4]byte, sp, dp uint16, seq, ack uint32, flags uint8, n uint16) bool {
		payload := make([]byte, int(n%3000))
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		p := &Packet{
			Src:   Endpoint{netip.AddrFrom4(srcIP), sp},
			Dst:   Endpoint{netip.AddrFrom4(dstIP), dp},
			Proto: ProtoTCP, Seq: seq, Ack: ack, Flags: flags, Window: 100,
			Payload: payload,
		}
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		return got.Src == p.Src && got.Dst == p.Dst && got.Seq == seq &&
			got.Ack == ack && got.Flags == flags && bytes.Equal(got.Payload, payload)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDNSRoundtripQuery(t *testing.T) {
	q := &DNSMessage{ID: 77, Name: "api.facebook.com"}
	got, err := UnmarshalDNS(MarshalDNS(q))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 77 || got.Response || got.Name != "api.facebook.com" || got.Answer.IsValid() {
		t.Fatalf("bad query roundtrip: %+v", got)
	}
}

func TestDNSRoundtripResponse(t *testing.T) {
	r := &DNSMessage{ID: 5, Response: true, Name: "r1.youtube.com", Answer: netip.MustParseAddr("74.125.1.9")}
	got, err := UnmarshalDNS(MarshalDNS(r))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Response || got.Name != r.Name || got.Answer != r.Answer {
		t.Fatalf("bad response roundtrip: %+v", got)
	}
}

func TestDNSNoAnswer(t *testing.T) {
	r := &DNSMessage{ID: 9, Response: true, Name: "nxdomain.example"}
	got, err := UnmarshalDNS(MarshalDNS(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Answer.IsValid() {
		t.Fatal("unexpected answer present")
	}
}
