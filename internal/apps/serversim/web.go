package serversim

import (
	"encoding/json"
	"hash/fnv"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

// Web wire protocol message kinds (a minimal HTTP stand-in over MsgConn).
const (
	// Client -> server.
	WebGetPage = 1 // JSON {path}
	WebGetRes  = 2 // JSON {path, index}

	// Server -> client.
	WebPageData = 11 // JSON PageSpec header + HTML filler
	WebResData  = 12 // resource filler bytes
)

// PageSpec describes a page's deterministic shape: HTML size and the sizes
// of its sub-resources (images, CSS, JS).
type PageSpec struct {
	Path      string `json:"path"`
	HTMLBytes int    `json:"html_bytes"`
	Resources []int  `json:"resources"` // byte sizes
}

// TotalBytes is the page's full transfer size.
func (p PageSpec) TotalBytes() int {
	t := p.HTMLBytes
	for _, r := range p.Resources {
		t += r
	}
	return t
}

type webRequest struct {
	Path  string `json:"path"`
	Index int    `json:"index,omitempty"`
}

// WebServer serves deterministic synthetic pages: 25-60 KB of HTML plus 4-9
// resources of 8-48 KB, derived from the path hash.
type WebServer struct {
	stack *netsim.Stack
	k     *simtime.Kernel

	// ProcDelay is server think-time per request.
	ProcDelay time.Duration
}

// NewWebServer installs the web protocol on a server stack (port 80).
func NewWebServer(s *netsim.Stack) *WebServer {
	srv := &WebServer{stack: s, k: s.Kernel(), ProcDelay: 60 * time.Millisecond}
	s.Listen(80, srv.accept)
	return srv
}

// Page returns the deterministic spec for a path.
func (srv *WebServer) Page(path string) PageSpec {
	h := fnv.New64a()
	h.Write([]byte(path))
	x := h.Sum64()
	spec := PageSpec{
		Path:      path,
		HTMLBytes: 25_000 + int(x%35_000),
	}
	nres := 4 + int(x>>8%6)
	for i := 0; i < nres; i++ {
		spec.Resources = append(spec.Resources, 8_000+int((x>>(8+4*i))%40_000))
	}
	return spec
}

func (srv *WebServer) accept(c *netsim.Conn) {
	mc := netsim.NewMsgConn(c)
	mc.OnMessage(func(kind byte, payload []byte) { srv.handle(mc, kind, payload) })
}

func (srv *WebServer) handle(mc *netsim.MsgConn, kind byte, payload []byte) {
	var req webRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return
	}
	spec := srv.Page(req.Path)
	switch kind {
	case WebGetPage:
		body := pageBody(spec)
		srv.k.After(srv.ProcDelay, func() { mc.Send(WebPageData, body) })
	case WebGetRes:
		if req.Index < 0 || req.Index >= len(spec.Resources) {
			return
		}
		srv.k.After(srv.ProcDelay, func() { mc.SendFiller(WebResData, spec.Resources[req.Index]) })
	}
}

// pageBody is a WebPageData payload: the length-prefixed JSON PageSpec, then
// HTMLBytes of LCG filler standing in for the HTML.
func pageBody(spec PageSpec) []byte {
	hdr, _ := json.Marshal(spec)
	body := make([]byte, 2+len(hdr)+spec.HTMLBytes)
	body[0] = byte(len(hdr) >> 8)
	body[1] = byte(len(hdr))
	copy(body[2:], hdr)
	lcgFill(body[2+len(hdr):], uint32(spec.HTMLBytes)*2246822519)
	return body
}

// DecodePageSpec extracts the PageSpec header from a WebPageData payload.
func DecodePageSpec(payload []byte) (PageSpec, bool) {
	var spec PageSpec
	if len(payload) < 2 {
		return spec, false
	}
	n := int(payload[0])<<8 | int(payload[1])
	if len(payload) < 2+n {
		return spec, false
	}
	if err := json.Unmarshal(payload[2:2+n], &spec); err != nil {
		return spec, false
	}
	return spec, true
}
