// Package escfix exercises the escape rules bufown applies only under
// internal/proto (the fixture path puts it there): pool-backed buffers
// must not leave the data plane through exported functions, package
// globals, or retention-free interface contracts.
package escfix

var stash *[]byte

func getBlockBuf(n int) *[]byte {
	b := make([]byte, n)
	return &b
}

func putBlockBuf(p *[]byte) { _ = p }

type sink interface {
	WriteAt(name string, p []byte, off int64) error
}

type writer interface {
	Write(p []byte) (int, error)
}

// NewBlock hands a pool buffer to arbitrary external callers.
func NewBlock(n int) *[]byte { // want `pool-backed buffer returned by exported NewBlock`
	return getBlockBuf(n)
}

// newBlock is the same shape unexported: in-package callers are
// covered by the source fixpoint, no escape.
func newBlock(n int) *[]byte {
	return getBlockBuf(n)
}

// toGlobal parks a pool buffer in a package variable, outliving any
// release discipline.
func toGlobal(n int) {
	bufp := getBlockBuf(n)
	defer putBlockBuf(bufp)
	stash = bufp // want `stored in package-level stash`
}

// toSink passes a pool-derived slice to an interface method with no
// non-retention contract: the implementation may keep it past the put.
func toSink(s sink, n int) error {
	bufp := getBlockBuf(n)
	defer putBlockBuf(bufp)
	payload := (*bufp)[:n]
	return s.WriteAt("x", payload, 0) // want `passed to interface method s.WriteAt`
}

// toWriter is exempt: Write([]byte) (int, error) carries the io.Writer
// contract, which forbids retaining the slice.
func toWriter(w writer, n int) (int, error) {
	bufp := getBlockBuf(n)
	defer putBlockBuf(bufp)
	return w.Write((*bufp)[:n])
}
