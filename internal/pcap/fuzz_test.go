package pcap_test

import (
	"bytes"
	"net/netip"
	"testing"

	"repro/internal/core/analyzer"
	"repro/internal/pcap"
)

// FuzzPcapFile feeds arbitrary bytes to the libpcap reader and decodes every
// record it accepts the way the analyzer does, then extracts flows. Bad
// input must come back as an error, never as a panic.
func FuzzPcapFile(f *testing.F) {
	dev := netip.MustParseAddr("10.0.0.2")
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := pcap.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := range records {
			records[i].Packet()
			records[i].DNS()
		}
		analyzer.ExtractFlows(records, dev)
	})
}
