package graph_test

import (
	"bytes"
	"runtime"
	"testing"

	"graphmaze/internal/graph"
)

// FuzzDecodeSnapshot: `graphserve -warm-start` hands a file straight to
// DecodeSnapshot, so arbitrary bytes must decode to an error or to a valid
// snapshot and never panic; a length prefix that lies cannot make the
// decoder allocate beyond a small multiple of the input (measured, not
// inferred from what was returned); and what was accepted re-encodes to
// bytes that decode to themselves, no longer than the frame they came
// from. Byte identity with the input holds for canonical input only —
// uvarints have over-long spellings — and the canonical seed pins it. This
// target is what found that a version-1 frame had no checksum (a flipped
// in-range target id decoded to a different valid graph); the last seeds
// are that flip and a version-1 header, both of which must now fail, and
// TestSnapshotCodecRejectsEveryBitFlip pins every flip of a small frame.
// Run it with -fuzzminimizetime 1s (make fuzz-smoke does): the seeds are
// kilobytes, and the default minute spent minimising each interesting
// input otherwise leaves a short run almost no executions.
func FuzzDecodeSnapshot(f *testing.F) {
	base, _ := benchBase(f, 6)
	blob, err := graph.EncodeSnapshot(nil, graph.NewSnapshot(3, base))
	if err != nil {
		f.Fatal(err)
	}
	if snap, rest, err := graph.DecodeSnapshot(blob); err != nil || len(rest) != 0 {
		f.Fatalf("canonical seed: %d trailing bytes, err %v", len(rest), err)
	} else if again, _ := graph.EncodeSnapshot(nil, snap); !bytes.Equal(again, blob) {
		f.Fatal("canonical seed does not re-encode to the same bytes")
	}
	f.Add(blob)
	for _, n := range []int{0, 1, 9, 18, 19, len(blob) / 2, len(blob) - 1} {
		f.Add(blob[:n])
	}
	flipped := bytes.Clone(blob)
	flipped[18] ^= 0x40 // the offsets array's length prefix
	f.Add(flipped)
	// A header followed by an offsets array that claims 2^60 entries.
	f.Add(append(bytes.Clone(blob[:18]), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10))
	targetFlip := bytes.Clone(blob)
	targetFlip[len(blob)-5] ^= 0x01 // low bit of the last target id, checksum left alone
	v1 := bytes.Clone(blob)
	v1[0] = 1 // the checksum-less layout
	for _, bad := range [][]byte{targetFlip, v1} {
		if _, _, err := graph.DecodeSnapshot(bad); err == nil {
			f.Fatal("a damaged or version-1 seed decoded")
		}
		f.Add(bad)
	}

	var before, after runtime.MemStats
	f.Fuzz(func(t *testing.T, data []byte) {
		runtime.ReadMemStats(&before)
		snap, rest, err := graph.DecodeSnapshot(data)
		runtime.ReadMemStats(&after)
		// Offsets are decoded through a same-sized intermediate, so a
		// truthful frame costs about twice its size; the slack covers
		// error values and the runtime's own bookkeeping.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if err := snap.CSR().Validate(); err != nil {
			t.Fatalf("accepted an invalid CSR: %v", err)
		}
		canon, err := graph.EncodeSnapshot(nil, snap)
		if err != nil {
			t.Fatalf("accepted snapshot does not encode: %v", err)
		}
		if consumed := len(data) - len(rest); len(canon) > consumed {
			t.Fatalf("a %d-byte frame re-encodes to %d bytes", consumed, len(canon))
		}
		snap2, rest2, err := graph.DecodeSnapshot(canon)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-encoded snapshot: %d trailing bytes, err %v", len(rest2), err)
		}
		if again, _ := graph.EncodeSnapshot(nil, snap2); !bytes.Equal(again, canon) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
