package proto_test

import (
	"fmt"

	"github.com/didclab/eta/internal/crc32c"
	"github.com/didclab/eta/internal/proto"
)

func ExampleCRC32CCombine() {
	a := []byte("energy-aware ")
	b := []byte("data transfers")
	whole := crc32c.Checksum(append(append([]byte{}, a...), b...))
	combined := proto.CRC32CCombine(crc32c.Checksum(a), crc32c.Checksum(b), int64(len(b)))
	fmt.Println(whole == combined)
	// Output: true
}

func ExampleFillSynth() {
	// Synthetic content is deterministic and O(1)-seekable: any range
	// can be regenerated for verification.
	head := make([]byte, 8)
	proto.FillSynth("example.dat", 0, head)
	again := make([]byte, 4)
	proto.FillSynth("example.dat", 4, again)
	fmt.Println(head[4] == again[0], head[7] == again[3])
	// Output: true true
}
