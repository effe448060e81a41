package pcap

import (
	"bytes"
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/simtime"
)

func capFixture(t *testing.T) *Capture {
	t.Helper()
	k := simtime.NewKernel(1)
	n := netsim.NewNetwork(radio.NewBearer(radio.NewCell(k, radio.SchedRoundRobin, 0), radio.ProfileWiFi(), 1), netip.MustParseAddr("10.0.0.2"), 5*time.Millisecond)
	c := NewCapture()
	c.Attach(n.Device)
	srv := n.MustAddServer(netip.MustParseAddr("93.184.216.34"))
	srv.Listen(80, func(conn *netsim.Conn) {
		conn.OnReceive(func(d []byte) { conn.Send(bytes.Repeat([]byte{0x55}, 9000)) })
	})
	conn := n.Device.Dial(netsim.Endpoint{Addr: netip.MustParseAddr("93.184.216.34"), Port: 80})
	conn.Send([]byte("GET / HTTP/1.1"))
	k.Run()
	return c
}

func TestCaptureRecordsTraffic(t *testing.T) {
	c := capFixture(t)
	if c.Len() < 6 { // SYN, SYN-ACK, ACK, request, data, ACKs...
		t.Fatalf("captured only %d frames", c.Len())
	}
	var in, out int
	for _, r := range c.Records() {
		if r.Inbound {
			in++
		} else {
			out++
		}
	}
	if in == 0 || out == 0 {
		t.Fatalf("directions missing: in=%d out=%d", in, out)
	}
	// Timestamps nondecreasing.
	for i := 1; i < c.Len(); i++ {
		if c.Records()[i].At < c.Records()[i-1].At {
			t.Fatal("records out of time order")
		}
	}
}

func TestRecordLazyDecode(t *testing.T) {
	c := capFixture(t)
	r := &c.Records()[0]
	p1, err := r.Packet()
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := r.Packet()
	if p1 != p2 {
		t.Fatal("decode not cached")
	}
	if p1.Proto != netsim.ProtoTCP {
		t.Fatalf("first packet proto = %v, want TCP (SYN)", p1.Proto)
	}
	if p1.Flags&netsim.FlagSYN == 0 {
		t.Fatal("first captured frame is not the SYN")
	}
}

func TestPcapFileRoundtrip(t *testing.T) {
	c := capFixture(t)
	path := filepath.Join(t.TempDir(), "trace.pcap")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != c.Len() {
		t.Fatalf("read %d records, wrote %d", len(got), c.Len())
	}
	for i, r := range got {
		orig := c.Records()[i]
		if !bytes.Equal(r.Data, orig.Data) {
			t.Fatalf("record %d data mismatch", i)
		}
		// Timestamps quantized to microseconds by the format.
		if d := r.At - orig.At; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("record %d time skew %v", i, d)
		}
		if _, err := r.Packet(); err != nil {
			t.Fatalf("record %d undecodable after roundtrip: %v", i, err)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a pcap file at all......"))); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("accepted empty stream")
	}
}

func TestSetEnabledPausesCapture(t *testing.T) {
	k := simtime.NewKernel(2)
	s := netsim.NewStack(k, netip.MustParseAddr("10.0.0.2"))
	s.SetOutput(func(*netsim.Packet) {})
	c := NewCapture()
	c.Attach(s)
	send := func() {
		s.SendUDP(netsim.Endpoint{Addr: s.Addr(), Port: 1}, netsim.Endpoint{Addr: netip.MustParseAddr("1.1.1.1"), Port: 2}, []byte("x"))
	}
	send()
	c.SetEnabled(false)
	send()
	send()
	c.SetEnabled(true)
	send()
	if c.Len() != 2 {
		t.Fatalf("captured %d, want 2", c.Len())
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset did not clear records")
	}
}

func TestDNSDecodeFromCapture(t *testing.T) {
	k := simtime.NewKernel(3)
	n := netsim.NewNetwork(radio.NewBearer(radio.NewCell(k, radio.SchedRoundRobin, 0), radio.ProfileWiFi(), 1), netip.MustParseAddr("10.0.0.2"), 5*time.Millisecond)
	c := NewCapture()
	c.Attach(n.Device)
	dnsAddr := netip.MustParseAddr("8.8.8.8")
	dns := n.MustAddServer(dnsAddr)
	netsim.AttachDNSServer(dns, map[string]netip.Addr{"api.facebook.com": netip.MustParseAddr("31.13.70.36")})
	r := netsim.NewResolver(n.Device, netsim.Endpoint{Addr: dnsAddr, Port: netsim.DNSPort})
	r.Resolve("api.facebook.com", func(netip.Addr, bool) {})
	k.Run()

	var query, resp *netsim.DNSMessage
	for i := range c.Records() {
		if m := c.Records()[i].DNS(); m != nil {
			if m.Response {
				resp = m
			} else {
				query = m
			}
		}
	}
	if query == nil || resp == nil {
		t.Fatal("DNS query/response not decodable from capture")
	}
	if query.Name != "api.facebook.com" || resp.Answer != netip.MustParseAddr("31.13.70.36") {
		t.Fatalf("bad DNS decode: q=%+v r=%+v", query, resp)
	}
}
