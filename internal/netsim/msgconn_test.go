package netsim

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simtime"
)

type msg struct {
	kind    byte
	payload []byte
}

// msgPair wires a client and server MsgConn over a lossy-capable pipe.
func msgPair(t *testing.T, seed int64, loss float64) (*simtime.Kernel, *MsgConn, *MsgConn, *pipe) {
	t.Helper()
	k := simtime.NewKernel(seed)
	p := newPipe(k, 10*time.Millisecond)
	if loss > 0 {
		rng := rand.New(rand.NewSource(seed))
		p.drop = func(*Packet) bool { return rng.Float64() < loss }
	}
	var server *MsgConn
	p.b.Listen(443, func(c *Conn) { server = NewMsgConn(c) })
	client := NewMsgConn(p.a.Dial(Endpoint{p.b.Addr(), 443}))
	k.Run()
	if server == nil {
		t.Fatal("handshake failed")
	}
	return k, client, server, p
}

func TestMsgConnRoundtrip(t *testing.T) {
	k, client, server, _ := msgPair(t, 1, 0)
	var got []msg
	server.OnMessage(func(kind byte, payload []byte) {
		got = append(got, msg{kind, append([]byte(nil), payload...)})
	})
	client.Send(7, []byte("hello"))
	client.Send(8, nil)
	client.Send(9, bytes.Repeat([]byte{0xEE}, 100_000))
	k.Run()
	if len(got) != 3 {
		t.Fatalf("got %d messages, want 3", len(got))
	}
	if got[0].kind != 7 || string(got[0].payload) != "hello" {
		t.Fatalf("msg 0: %+v", got[0])
	}
	if got[1].kind != 8 || len(got[1].payload) != 0 {
		t.Fatalf("msg 1: %+v", got[1])
	}
	if got[2].kind != 9 || len(got[2].payload) != 100_000 {
		t.Fatalf("msg 2 wrong: kind=%d len=%d", got[2].kind, len(got[2].payload))
	}
}

func TestMsgConnBidirectional(t *testing.T) {
	k, client, server, _ := msgPair(t, 2, 0)
	server.OnMessage(func(kind byte, payload []byte) {
		server.Send(kind+1, payload)
	})
	var reply msg
	client.OnMessage(func(kind byte, payload []byte) {
		reply = msg{kind, append([]byte(nil), payload...)}
	})
	client.Send(10, []byte("ping"))
	k.Run()
	if reply.kind != 11 || string(reply.payload) != "pong"[:0]+"ping" {
		t.Fatalf("reply: %+v", reply)
	}
}

func TestMsgConnFramingSurvivesLoss(t *testing.T) {
	k, client, server, _ := msgPair(t, 3, 0.08)
	var got []msg
	server.OnMessage(func(kind byte, payload []byte) {
		got = append(got, msg{kind, append([]byte(nil), payload...)})
	})
	want := make([]msg, 30)
	rng := rand.New(rand.NewSource(9))
	for i := range want {
		n := rng.Intn(5000)
		payload := make([]byte, n)
		rng.Read(payload)
		want[i] = msg{byte(i), payload}
		client.Send(want[i].kind, want[i].payload)
	}
	k.Run()
	if len(got) != len(want) {
		t.Fatalf("got %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].kind != want[i].kind || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

func TestMsgConnSendFillerDiversity(t *testing.T) {
	k, client, server, _ := msgPair(t, 4, 0)
	var payload []byte
	server.OnMessage(func(kind byte, p []byte) { payload = bytes.Clone(p) })
	client.SendFiller(1, 10_000)
	k.Run()
	if len(payload) != 10_000 {
		t.Fatalf("filler size %d", len(payload))
	}
	// Filler must be byte-diverse (the RLC head-byte mapping depends on it):
	// count distinct values in the first KB.
	seen := map[byte]bool{}
	for _, b := range payload[:1024] {
		seen[b] = true
	}
	if len(seen) < 100 {
		t.Fatalf("filler has only %d distinct bytes per KB", len(seen))
	}
}

// Property: any message sequence is delivered intact and in order.
func TestQuickMsgConnOrdering(t *testing.T) {
	f := func(seed int64, sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 20 {
			return true
		}
		k, client, server, _ := msgPair(&testing.T{}, seed, 0.03)
		var kinds []byte
		total := 0
		server.OnMessage(func(kind byte, payload []byte) {
			kinds = append(kinds, kind)
			total += len(payload)
		})
		wantTotal := 0
		for i, s := range sizes {
			n := int(s % 8000)
			wantTotal += n
			client.Send(byte(i), make([]byte, n))
		}
		k.Run()
		if len(kinds) != len(sizes) || total != wantTotal {
			return false
		}
		for i, kd := range kinds {
			if kd != byte(i) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
