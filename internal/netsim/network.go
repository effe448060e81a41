package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/simtime"
)

// Network wires one device stack through a cellular (or WiFi) bearer and an
// optional pair of carrier qdiscs to a set of server stacks:
//
//	device <-> RLC/RRC bearer <-> [qdisc] <-> core (fixed delay) <-> servers
//
// The uplink qdisc sits after the bearer (base-station egress), the downlink
// qdisc before it (base-station ingress) — where carrier throttling happens.
type Network struct {
	k      *simtime.Kernel
	Device *Stack
	Bearer *radio.Bearer

	// CoreDelay is the one-way latency between the base station and any
	// server (core network + internet path + server stack).
	CoreDelay time.Duration

	// ULQdisc and DLQdisc model carrier rate limiting. Defaults pass
	// everything.
	ULQdisc Qdisc
	DLQdisc Qdisc

	servers map[netip.Addr]*Stack

	// pathDelays overrides CoreDelay for specific server addresses —
	// e.g. an edge replica closer than the primary CDN node. Nil until
	// SetPathDelay is first called.
	pathDelays map[netip.Addr]time.Duration

	// wireFree recycles Marshal buffers for packets crossing the bearer. The
	// bearer hands each buffer back via its payload-release hook as soon as
	// RLC segmentation has copied the head bytes it keeps, so buffers cycle
	// once per packet instead of allocating per packet.
	wireFree [][]byte

	// The six hops of a packet's trip, bound once: each passes the
	// *Packet to the next as its argument instead of capturing it in a
	// fresh closure.
	ulQdiscFn, ulCoreFn, toServerFn   func(any)
	dlQdiscFn, dlBearerFn, toDeviceFn func(any)

	tr  *obs.Trace
	reg *obs.Registry
}

// NewNetwork builds a network with a device at deviceAddr behind bearer b,
// driven by the bearer's kernel.
func NewNetwork(b *radio.Bearer, deviceAddr netip.Addr, coreDelay time.Duration) *Network {
	k := b.Kernel()
	n := &Network{
		k:         k,
		Device:    NewStack(k, deviceAddr),
		Bearer:    b,
		CoreDelay: coreDelay,
		ULQdisc:   PassQdisc{},
		DLQdisc:   PassQdisc{},
		servers:   make(map[netip.Addr]*Stack),
	}
	n.ulQdiscFn, n.ulCoreFn, n.toServerFn = n.ulQdisc, n.ulCore, n.toServer
	n.dlQdiscFn, n.dlBearerFn, n.toDeviceFn = n.dlQdisc, n.dlBearer, n.toDevice
	n.Device.SetOutput(n.uplink)
	n.Bearer.SetPayloadRelease(n.releaseWire)
	return n
}

// marshalWire serializes p into a recycled wire buffer when one is free.
func (n *Network) marshalWire(p *Packet) []byte {
	if l := len(n.wireFree); l > 0 {
		buf := n.wireFree[l-1]
		n.wireFree[l-1] = nil
		n.wireFree = n.wireFree[:l-1]
		return p.MarshalAppend(buf[:0])
	}
	return p.Marshal()
}

func (n *Network) releaseWire(b []byte) { n.wireFree = append(n.wireFree, b) }

// Kernel returns the driving kernel.
func (n *Network) Kernel() *simtime.Kernel { return n.k }

// SetObs attaches a trace bus and metrics registry to every stack in the
// network — the device and all servers, including ones added later.
func (n *Network) SetObs(tr *obs.Trace, reg *obs.Registry) {
	n.tr, n.reg = tr, reg
	n.Device.SetObs(tr, reg)
	for _, s := range n.servers {
		s.SetObs(tr, reg)
	}
}

// AddServer creates a server stack at addr and attaches it to the core. It
// returns an error if a server is already registered at addr.
func (n *Network) AddServer(addr netip.Addr) (*Stack, error) {
	if _, dup := n.servers[addr]; dup {
		return nil, fmt.Errorf("netsim: duplicate server %v", addr)
	}
	s := NewStack(n.k, addr)
	s.SetOutput(func(p *Packet) { n.fromServer(s, p) })
	if n.tr != nil || n.reg != nil {
		s.SetObs(n.tr, n.reg)
	}
	n.servers[addr] = s
	return s, nil
}

// MustAddServer is AddServer for callers whose addresses are distinct by
// construction (fixed constants); it panics on a duplicate.
func (n *Network) MustAddServer(addr netip.Addr) *Stack {
	s, err := n.AddServer(addr)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// Server returns the stack at addr, or nil.
func (n *Network) Server(addr netip.Addr) *Stack { return n.servers[addr] }

// SetPathDelay overrides the one-way device<->server core latency for one
// server address (an edge replica on a shorter path). A non-positive d
// removes the override. Only packets in flight after the call see the new
// delay; server-to-server traffic always uses CoreDelay.
func (n *Network) SetPathDelay(addr netip.Addr, d time.Duration) {
	if d <= 0 {
		delete(n.pathDelays, addr)
		return
	}
	if n.pathDelays == nil {
		n.pathDelays = make(map[netip.Addr]time.Duration)
	}
	n.pathDelays[addr] = d
}

// pathDelay returns the device<->server one-way latency for addr.
func (n *Network) pathDelay(addr netip.Addr) time.Duration {
	if d, ok := n.pathDelays[addr]; ok {
		return d
	}
	return n.CoreDelay
}

// uplink carries a device packet through the bearer, the uplink qdisc and
// the core to its server.
func (n *Network) uplink(p *Packet) {
	n.Bearer.SendUplink(n.marshalWire(p), n.ulQdiscFn, p)
}

// ulQdisc passes a packet the bearer reassembled at the base station to the
// uplink qdisc.
func (n *Network) ulQdisc(arg any) {
	p := arg.(*Packet)
	n.ULQdisc.Enqueue(p.WireLen(), n.ulCoreFn, p, nil)
}

// ulCore sends a packet that left the uplink qdisc across the core.
func (n *Network) ulCore(arg any) {
	p := arg.(*Packet)
	n.k.AfterWith(n.pathDelay(p.Dst.Addr), n.toServerFn, p)
}

// toServer hands a packet that crossed the core to its destination server.
func (n *Network) toServer(arg any) {
	p := arg.(*Packet)
	if srv, ok := n.servers[p.Dst.Addr]; ok {
		srv.Input(p)
	}
}

// fromServer routes a server packet: to the device via the core, the
// downlink qdisc and the bearer, or directly to another server.
func (n *Network) fromServer(from *Stack, p *Packet) {
	if p.Dst.Addr == n.Device.Addr() {
		n.k.AfterWith(n.pathDelay(from.Addr()), n.dlQdiscFn, p)
		return
	}
	if srv, ok := n.servers[p.Dst.Addr]; ok && srv != from {
		n.k.AfterWith(2*n.CoreDelay, n.toServerFn, p)
	}
}

// dlQdisc passes a server packet that crossed the core to the downlink
// qdisc.
func (n *Network) dlQdisc(arg any) {
	p := arg.(*Packet)
	n.DLQdisc.Enqueue(p.WireLen(), n.dlBearerFn, p, nil)
}

// dlBearer marshals a packet that left the downlink qdisc and sends it over
// the bearer. It marshals here, after the qdisc, because a duplicating fault
// stage forwards twice and each copy needs a wire buffer of its own.
func (n *Network) dlBearer(arg any) {
	p := arg.(*Packet)
	n.Bearer.SendDownlink(n.marshalWire(p), n.toDeviceFn, p)
}

// toDevice hands a packet the bearer reassembled at the device to its stack.
func (n *Network) toDevice(arg any) { n.Device.Input(arg.(*Packet)) }
