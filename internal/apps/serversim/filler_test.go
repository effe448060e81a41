package serversim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// pageBodyPerByte and encodeMetaPerByte are the per-byte append loops that
// pageBody and EncodeMeta replaced, kept as their reference.
func pageBodyPerByte(spec PageSpec) []byte {
	hdr, _ := json.Marshal(spec)
	body := make([]byte, 2+len(hdr), 2+len(hdr)+spec.HTMLBytes)
	body[0] = byte(len(hdr) >> 8)
	body[1] = byte(len(hdr))
	copy(body[2:], hdr)
	x := uint32(spec.HTMLBytes) * 2246822519
	for len(body) < 2+len(hdr)+spec.HTMLBytes {
		x = x*1664525 + 1013904223
		body = append(body, byte(x>>24))
	}
	return body
}

func encodeMetaPerByte(meta FBMeta, total int) []byte {
	hdr, _ := json.Marshal(meta)
	out := make([]byte, 2, max(total, len(hdr)+2))
	out[0] = byte(len(hdr) >> 8)
	out[1] = byte(len(hdr))
	out = append(out, hdr...)
	x := uint32(len(hdr))*2654435761 + uint32(total)
	for len(out) < total {
		x = x*1664525 + 1013904223
		out = append(out, byte(x>>24))
	}
	return out
}

func TestFillerMatchesPerByteLoop(t *testing.T) {
	srv := &WebServer{}
	for i := 0; i < 50; i++ {
		spec := srv.Page(fmt.Sprintf("/page/%d", i))
		if got, want := pageBody(spec), pageBodyPerByte(spec); !bytes.Equal(got, want) {
			t.Fatalf("page %d: body differs from the per-byte loop", i)
		}
	}
	metas := []FBMeta{{}, {PostID: "p7", Kind: "photos", Stamp: "ts-9"}, {Variant: VariantWebView, FeedSeq: 12, Recommnd: true}}
	for _, meta := range metas {
		for _, total := range []int{0, 1, 2, 20, 300, 4096, PhotoAckBytes} {
			if got, want := EncodeMeta(meta, total), encodeMetaPerByte(meta, total); !bytes.Equal(got, want) {
				t.Fatalf("EncodeMeta(%+v, %d) differs from the per-byte loop", meta, total)
			}
		}
	}
}
