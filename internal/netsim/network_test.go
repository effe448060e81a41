package netsim

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"repro/internal/radio"
	"repro/internal/simtime"
)

var (
	deviceAddr = netip.MustParseAddr("10.20.0.2")
	serverAddr = netip.MustParseAddr("31.13.70.36")
	dnsAddr    = netip.MustParseAddr("8.8.8.8")
)

func lteNet(seed int64) (*simtime.Kernel, *Network) {
	k := simtime.NewKernel(seed)
	n := NewNetwork(radio.NewBearer(radio.NewCell(k, radio.SchedRoundRobin, 0), radio.ProfileLTE(), 1), deviceAddr, 20*time.Millisecond)
	return k, n
}

func TestNetworkEndToEndTransfer(t *testing.T) {
	k, n := lteNet(1)
	srv := n.MustAddServer(serverAddr)
	var got []byte
	srv.Listen(443, func(c *Conn) {
		c.OnReceive(func(d []byte) { got = append(got, d...) })
	})
	want := bytes.Repeat([]byte{0xC3}, 50_000)
	c := n.Device.Dial(Endpoint{serverAddr, 443})
	c.Send(want)
	k.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(want))
	}
}

func TestNetworkIncludesPromotionDelay(t *testing.T) {
	// First byte over an idle LTE radio pays the 260ms promotion.
	k, n := lteNet(2)
	srv := n.MustAddServer(serverAddr)
	var estAt simtime.Time = -1
	srv.Listen(443, func(c *Conn) {})
	c := n.Device.Dial(Endpoint{serverAddr, 443})
	c.OnEstablished(func() { estAt = k.Now() })
	k.RunUntil(5 * time.Second)
	if estAt < 0 {
		t.Fatal("handshake never completed")
	}
	if estAt < 260*time.Millisecond {
		t.Fatalf("established at %v, before promotion could finish", estAt)
	}
	if estAt > 2*time.Second {
		t.Fatalf("established at %v, too slow", estAt)
	}
}

func TestNetwork3GSlowerThanLTE(t *testing.T) {
	transfer := func(prof *radio.Profile) simtime.Time {
		k := simtime.NewKernel(3)
		n := NewNetwork(radio.NewBearer(radio.NewCell(k, radio.SchedRoundRobin, 0), prof, 1), deviceAddr, 20*time.Millisecond)
		srv := n.MustAddServer(serverAddr)
		var doneAt simtime.Time
		total := 0
		srv.Listen(443, func(c *Conn) {
			c.OnReceive(func(d []byte) {
				total += len(d)
				if total == 200_000 {
					doneAt = k.Now()
				}
			})
		})
		c := n.Device.Dial(Endpoint{serverAddr, 443})
		c.Send(make([]byte, 200_000))
		k.RunUntil(5 * time.Minute)
		if doneAt == 0 {
			t.Fatal("transfer incomplete")
		}
		return doneAt
	}
	t3g, tlte := transfer(radio.Profile3G()), transfer(radio.ProfileLTE())
	if t3g <= tlte {
		t.Fatalf("3G upload (%v) not slower than LTE (%v)", t3g, tlte)
	}
}

func TestDNSResolutionOverNetwork(t *testing.T) {
	k, n := lteNet(4)
	dns := n.MustAddServer(dnsAddr)
	AttachDNSServer(dns, map[string]netip.Addr{"api.facebook.com": serverAddr})
	r := NewResolver(n.Device, Endpoint{dnsAddr, DNSPort})
	var got netip.Addr
	var ok bool
	r.Resolve("api.facebook.com", func(a netip.Addr, k2 bool) { got, ok = a, k2 })
	k.Run()
	if !ok || got != serverAddr {
		t.Fatalf("resolve failed: %v %v", got, ok)
	}
}

func TestDNSNXDomain(t *testing.T) {
	k, n := lteNet(5)
	dns := n.MustAddServer(dnsAddr)
	AttachDNSServer(dns, nil)
	r := NewResolver(n.Device, Endpoint{dnsAddr, DNSPort})
	ok := true
	ran := false
	r.Resolve("missing.example", func(a netip.Addr, k2 bool) { ok, ran = k2, true })
	k.Run()
	if !ran || ok {
		t.Fatalf("NXDOMAIN not reported: ran=%v ok=%v", ran, ok)
	}
}

func TestDNSCacheAvoidsTraffic(t *testing.T) {
	k, n := lteNet(6)
	dns := n.MustAddServer(dnsAddr)
	AttachDNSServer(dns, map[string]netip.Addr{"a.example": serverAddr})
	r := NewResolver(n.Device, Endpoint{dnsAddr, DNSPort})
	queries := 0
	n.Device.AttachCapture(func(at simtime.Time, p *Packet, inbound bool) {
		if !inbound && p.Proto == ProtoUDP && p.Dst.Port == DNSPort {
			queries++
		}
	})
	r.Resolve("a.example", func(netip.Addr, bool) {
		r.Resolve("a.example", func(netip.Addr, bool) {})
	})
	k.Run()
	if queries != 1 {
		t.Fatalf("queries = %d, want 1 (second resolve cached)", queries)
	}
}

func TestPolicerDropsExcess(t *testing.T) {
	k := simtime.NewKernel(7)
	pol := NewPolicer(k, 100e3, 10_000) // 100 kbps, 10KB burst
	delivered, dropped := 0, 0
	// Offer 100 x 1500B instantly: burst allows ~6, the rest drop.
	for i := 0; i < 100; i++ {
		pol.Enqueue(1500, func(any) { delivered++ }, nil, func() { dropped++ })
	}
	if delivered < 5 || delivered > 8 {
		t.Fatalf("delivered = %d, want ~6 from the burst", delivered)
	}
	if dropped != 100-delivered || pol.Drops != dropped {
		t.Fatalf("dropped = %d (counter %d)", dropped, pol.Drops)
	}
	// After a second the bucket refills, but only up to its 10KB capacity:
	// 6 more full-size packets.
	k.RunUntil(time.Second)
	before := delivered
	for i := 0; i < 20; i++ {
		pol.Enqueue(1500, func(any) { delivered++ }, nil, nil)
	}
	if gained := delivered - before; gained < 6 || gained > 7 {
		t.Fatalf("after 1s refill delivered %d more, want ~6 (capacity-limited)", gained)
	}
}

func TestShaperDelaysInsteadOfDropping(t *testing.T) {
	k := simtime.NewKernel(8)
	sh := NewShaper(k, 100e3, 10_000, 1<<20)
	var times []simtime.Time
	for i := 0; i < 20; i++ {
		sh.Enqueue(1500, func(any) { times = append(times, k.Now()) }, nil, nil)
	}
	k.Run()
	if len(times) != 20 {
		t.Fatalf("shaper lost packets: %d of 20 (drops=%d)", len(times), sh.Drops)
	}
	// Packets beyond the burst are spaced at the token rate: 1500B at
	// 100kbps = 120ms apart.
	last := times[len(times)-1]
	if last < time.Second {
		t.Fatalf("last packet released at %v, expected >1s of shaping delay", last)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatal("shaper reordered packets")
		}
	}
}

func TestShaperTailDrop(t *testing.T) {
	k := simtime.NewKernel(9)
	sh := NewShaper(k, 100e3, 1000, 5000) // tiny queue
	delivered, dropped := 0, 0
	for i := 0; i < 50; i++ {
		sh.Enqueue(1500, func(any) { delivered++ }, nil, func() { dropped++ })
	}
	k.Run()
	if dropped == 0 {
		t.Fatal("full shaper queue did not tail-drop")
	}
	if delivered+dropped != 50 {
		t.Fatalf("accounting: %d + %d != 50", delivered, dropped)
	}
}

func TestThrottledDownlinkSlowsTransfer(t *testing.T) {
	run := func(throttle bool) simtime.Time {
		k := simtime.NewKernel(10)
		n := NewNetwork(radio.NewBearer(radio.NewCell(k, radio.SchedRoundRobin, 0), radio.ProfileLTE(), 1), deviceAddr, 20*time.Millisecond)
		if throttle {
			n.DLQdisc = NewPolicer(k, 245e3, 32_000)
		}
		srv := n.MustAddServer(serverAddr)
		srv.Listen(80, func(c *Conn) {
			c.OnReceive(func(d []byte) { c.Send(make([]byte, 300_000)) })
		})
		var doneAt simtime.Time
		got := 0
		c := n.Device.Dial(Endpoint{serverAddr, 80})
		c.OnReceive(func(d []byte) {
			got += len(d)
			if got == 300_000 {
				doneAt = k.Now()
			}
		})
		c.Send([]byte("GET"))
		k.RunUntil(5 * time.Minute)
		if doneAt == 0 {
			t.Fatalf("transfer (throttle=%v) incomplete: %d bytes", throttle, got)
		}
		return doneAt
	}
	free, capped := run(false), run(true)
	if capped < 5*free {
		t.Fatalf("throttled transfer (%v) not dramatically slower than unthrottled (%v)", capped, free)
	}
	// 300KB at 245kbps is ~10s minimum.
	if capped < 8*time.Second {
		t.Fatalf("throttled transfer finished in %v, faster than the cap allows", capped)
	}
}

func TestDuplicateServerError(t *testing.T) {
	_, n := lteNet(11)
	if _, err := n.AddServer(serverAddr); err != nil {
		t.Fatalf("first AddServer: %v", err)
	}
	if _, err := n.AddServer(serverAddr); err == nil {
		t.Fatal("duplicate AddServer did not return an error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate MustAddServer did not panic")
		}
	}()
	n.MustAddServer(serverAddr)
}

func TestServerToServerRouting(t *testing.T) {
	k, n := lteNet(12)
	a := n.MustAddServer(netip.MustParseAddr("1.1.1.1"))
	b := n.MustAddServer(netip.MustParseAddr("2.2.2.2"))
	var got []byte
	b.Listen(80, func(c *Conn) {
		c.OnReceive(func(d []byte) { got = append(got, d...) })
	})
	c := a.Dial(Endpoint{netip.MustParseAddr("2.2.2.2"), 80})
	c.Send([]byte("inter-server"))
	k.Run()
	if string(got) != "inter-server" {
		t.Fatalf("got %q", got)
	}
}
