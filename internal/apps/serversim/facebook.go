package serversim

import (
	"encoding/json"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

// Facebook wire protocol message kinds. The payload sizes (not the bytes)
// carry the semantics; metadata rides in a small JSON header so the client
// can identify posts.
const (
	// Client -> server.
	FBUpload    = 1 // JSON meta + filler payload (the post content)
	FBFeedFetch = 2 // JSON meta {variant}
	FBSubscribe = 3 // opens the push-notification channel
	FBFetchPost = 4 // JSON meta {post id}

	// Server -> client.
	FBUploadAck   = 11 // JSON meta echoing the post id
	FBFeedData    = 12 // JSON meta + feed filler (size depends on variant)
	FBNotify      = 13 // JSON meta {post id, size}: a friend posted
	FBPostContent = 14 // JSON meta + post filler
)

// Feed variants: the 2014 redesign the paper studies in §7.4.
const (
	VariantListView = "listview"
	VariantWebView  = "webview"
)

// Facebook server tuning. Sizes are calibrated to the paper's measurements:
// the WebView feed carries >77% more downlink bytes than the ListView feed
// (Fig. 16), and one background recommendation refresh is ~8 KB so that the
// default 1-hour refresh interval accumulates the ~200 KB/day observed in
// §7.3.
const (
	FeedBytesListView   = 11_000
	FeedBytesWebView    = 24_000
	RecommendationBytes = 8_000
	NotifyBytes         = 300
	PostContentBytes    = 14_000
	UploadAckBytes      = 600
	// PhotoAckBytes: after a photo upload the server returns the rendered
	// photo story — the §7.2 trace pattern of "uploading then downloading
	// two large chunks of data".
	PhotoAckBytes = 60_000
)

// FBMeta is the JSON header prefixed to protocol payloads.
type FBMeta struct {
	PostID   string `json:"post_id,omitempty"`
	Kind     string `json:"kind,omitempty"` // status | checkin | photos
	Variant  string `json:"variant,omitempty"`
	Size     int    `json:"size,omitempty"`
	Stamp    string `json:"stamp,omitempty"` // client timestamp string in the post
	FeedSeq  int    `json:"feed_seq,omitempty"`
	Recommnd bool   `json:"recommend,omitempty"`
}

// EncodeMeta frames meta as a length-prefixed JSON header followed by
// padding filler up to total bytes.
func EncodeMeta(meta FBMeta, total int) []byte {
	hdr, err := json.Marshal(meta)
	if err != nil {
		panic("serversim: meta marshal: " + err.Error())
	}
	out := make([]byte, max(total, len(hdr)+2))
	out[0] = byte(len(hdr) >> 8)
	out[1] = byte(len(hdr))
	copy(out[2:], hdr)
	lcgFill(out[2+len(hdr):], uint32(len(hdr))*2654435761+uint32(total))
	return out
}

// lcgFill writes aperiodic filler into p: the top byte of each step of a
// 32-bit LCG started at x. Aperiodic padding keeps RLC PDU head bytes
// diverse (byte-periodic filler would let the long-jump mapper alias).
func lcgFill(p []byte, x uint32) {
	for i := range p {
		x = x*1664525 + 1013904223
		p[i] = byte(x >> 24)
	}
}

// DecodeMeta parses a payload produced by EncodeMeta.
func DecodeMeta(payload []byte) (FBMeta, bool) {
	var m FBMeta
	if len(payload) < 2 {
		return m, false
	}
	n := int(payload[0])<<8 | int(payload[1])
	if len(payload) < 2+n {
		return m, false
	}
	if err := json.Unmarshal(payload[2:2+n], &m); err != nil {
		return m, false
	}
	return m, true
}

// FacebookServer is the API + feed + push-notification endpoint.
type FacebookServer struct {
	stack *netsim.Stack
	k     *simtime.Kernel

	// Server-side processing delays before replying.
	StatusProcDelay time.Duration
	PhotoProcDelay  time.Duration
	FeedProcDelay   time.Duration

	subscribers []*netsim.MsgConn
	feedSeq     int
	// pendingPosts maps post ids to their content size for FBFetchPost.
	pendingPosts map[string]int
}

// NewFacebookServer installs the Facebook protocol on a server stack.
func NewFacebookServer(s *netsim.Stack) *FacebookServer {
	srv := &FacebookServer{
		stack:           s,
		k:               s.Kernel(),
		StatusProcDelay: 120 * time.Millisecond,
		PhotoProcDelay:  900 * time.Millisecond,
		FeedProcDelay:   150 * time.Millisecond,
		pendingPosts:    make(map[string]int),
	}
	s.Listen(443, srv.accept)
	return srv
}

func (srv *FacebookServer) accept(c *netsim.Conn) {
	mc := netsim.NewMsgConn(c)
	mc.OnMessage(func(kind byte, payload []byte) { srv.handle(mc, kind, payload) })
}

func (srv *FacebookServer) handle(mc *netsim.MsgConn, kind byte, payload []byte) {
	meta, _ := DecodeMeta(payload)
	switch kind {
	case FBUpload:
		delay, ackSize := srv.StatusProcDelay, UploadAckBytes
		if meta.Kind == "photos" {
			delay, ackSize = srv.PhotoProcDelay, PhotoAckBytes
		}
		srv.k.After(delay, func() {
			mc.Send(FBUploadAck, EncodeMeta(FBMeta{PostID: meta.PostID, Stamp: meta.Stamp}, ackSize))
		})
	case FBFeedFetch:
		size := FeedBytesListView
		if meta.Variant == VariantWebView {
			size = FeedBytesWebView
		}
		if meta.Recommnd {
			size = RecommendationBytes
		}
		srv.feedSeq++
		seq := srv.feedSeq
		srv.k.After(srv.FeedProcDelay, func() {
			mc.Send(FBFeedData, EncodeMeta(FBMeta{Variant: meta.Variant, FeedSeq: seq}, size))
		})
	case FBSubscribe:
		srv.subscribers = append(srv.subscribers, mc)
	case FBFetchPost:
		size, ok := srv.pendingPosts[meta.PostID]
		if !ok {
			size = PostContentBytes
		}
		srv.k.After(srv.FeedProcDelay, func() {
			mc.Send(FBPostContent, EncodeMeta(FBMeta{PostID: meta.PostID, Size: size}, size))
		})
	}
}

// InjectFriendPost simulates a friend (the paper's device A) posting: every
// subscriber gets a push notification carrying the post id; clients then
// fetch the content. size is the post content size in bytes.
func (srv *FacebookServer) InjectFriendPost(id string, size int) {
	srv.pendingPosts[id] = size
	for _, mc := range srv.subscribers {
		mc.Send(FBNotify, EncodeMeta(FBMeta{PostID: id, Size: size}, NotifyBytes))
	}
}

// Subscribers reports the number of push-channel subscribers (tests).
func (srv *FacebookServer) Subscribers() int { return len(srv.subscribers) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
