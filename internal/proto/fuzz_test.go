package proto

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// The fuzz targets double as robustness tests on their seed corpora
// under plain `go test`; run `go test -fuzz FuzzParseGet ./internal/proto`
// to explore further.

func FuzzParseGet(f *testing.F) {
	f.Add("1 file.dat 0 100")
	f.Add("4294967295 a%20b 9223372036854775807 0")
	f.Add("x y z w")
	f.Add("")
	f.Fuzz(func(t *testing.T, line string) {
		fields := strings.Fields(line)
		req, err := parseGet(fields)
		if err != nil {
			return
		}
		// Anything accepted must round-trip through the formatter.
		out := formatGet(req)
		verb, fields2, err := readLine(bufio.NewReader(strings.NewReader(out)))
		if err != nil || verb != cmdGet {
			t.Fatalf("formatted GET unreadable: %q (%v)", out, err)
		}
		req2, err := parseGet(fields2)
		if err != nil {
			t.Fatalf("formatted GET unparseable: %q (%v)", out, err)
		}
		// Offsets/lengths/id survive exactly; names survive modulo the
		// space escaping (space becomes %20 on the first round trip).
		if req2.ID != req.ID || req2.Offset != req.Offset || req2.Length != req.Length {
			t.Fatalf("round trip changed request: %+v vs %+v", req, req2)
		}
	})
}

func FuzzReadBlockHeader(f *testing.F) {
	var good bytes.Buffer
	_ = writeBlockHeader(&good, blockHeader{ReqID: 7, Offset: 1024, Length: 512})
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, blockHeaderSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := readBlockHeader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted headers re-encode to the identical prefix bytes.
		var buf bytes.Buffer
		if err := writeBlockHeader(&buf, h); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data[:blockHeaderSize]) {
			t.Fatalf("header did not round trip: %x vs %x", buf.Bytes(), data[:blockHeaderSize])
		}
	})
}

func FuzzReadLine(f *testing.F) {
	f.Add("GET 1 a 0 1\nrest")
	f.Add("\n")
	f.Add("   \n")
	f.Add("DONE 3 12345\n")
	f.Fuzz(func(t *testing.T, input string) {
		if !strings.Contains(input, "\n") {
			return // readLine blocks without a newline; EOF error path is fine
		}
		verb, fields, err := readLine(bufio.NewReader(strings.NewReader(input)))
		if err != nil {
			return
		}
		if verb == "" {
			t.Fatal("readLine returned empty verb without error")
		}
		for _, field := range fields {
			if strings.ContainsAny(field, " \t\n") {
				t.Fatalf("field %q contains whitespace", field)
			}
		}
	})
}

// FuzzParseEndpoints: any -addrs value is rejected or parsed, never a
// panic; every accepted endpoint has an address and a weight in
// [1, maxEndpointWeight]; and for a small accepted list, one window of
// Σweights picks from a fresh pool hands each endpoint exactly its
// weight.
func FuzzParseEndpoints(f *testing.F) {
	f.Add("host1:7001")
	f.Add("host1:7001=3,host2:7002")
	f.Add("[::1]:7001:3,a:1:2")
	f.Add("a:1=4611686018427387904,b:1=4611686018427387904")
	f.Add(" , =")
	f.Fuzz(func(t *testing.T, list string) {
		eps, err := ParseEndpoints(list)
		if err != nil {
			return
		}
		sum := 0
		for _, ep := range eps {
			if ep.Addr == "" || ep.Weight < 1 || ep.Weight > maxEndpointWeight {
				t.Fatalf("ParseEndpoints(%q) accepted %+v", list, ep)
			}
			sum += ep.Weight
		}
		if len(eps) > 8 || sum > 64 {
			return
		}
		pool, err := NewEndpointPool(eps...)
		if err != nil {
			t.Fatalf("NewEndpointPool(%+v): %v", eps, err)
		}
		picks := make([]int, len(eps))
		for i := 0; i < sum; i++ {
			idx, _ := pool.Pick()
			picks[idx]++
		}
		for i, ep := range eps {
			if picks[i] != ep.Weight {
				t.Fatalf("%q: endpoint %d picked %d times in a window of %d picks, weight %d",
					list, i, picks[i], sum, ep.Weight)
			}
		}
	})
}
