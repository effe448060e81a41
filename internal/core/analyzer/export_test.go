package analyzer

import "repro/internal/qxdm"

// Hooks for external tests (package analyzer_test), which need the seed
// oracles (oracle_test.go) to prove equivalence.

// LongJumpMapLinear exposes the seed reference mapper.
func LongJumpMapLinear(packets []MappedPacket, pdus []qxdm.PDURecord) MappingResult {
	return longJumpMapLinear(packets, pdus)
}

// NewCrossLayerSerialForTest runs the seed serial analyzer.
var NewCrossLayerSerialForTest = newCrossLayerSerial

// SplitPacketsForTest exposes the capture UL/DL partition for benchmarks.
var SplitPacketsForTest = splitPackets
