// Package bufownhelper is the regression fixture for bufown v1's blind
// spot: a buffer passed to a helper that releases it. v1 demanded a
// putBlockBuf identifier in the acquiring function itself and flagged
// viaHelper below; v2 finds the releasing and source helpers by a
// fixpoint over the package and follows the ownership through the call.
package bufownhelper

var spare [][]byte

func getBlockBuf(n int) *[]byte {
	b := make([]byte, n)
	return &b
}

func putBlockBuf(p *[]byte) {
	if p != nil {
		spare = append(spare, *p)
	}
}

// releaseLater takes ownership of its parameter.
func releaseLater(p *[]byte) {
	putBlockBuf(p)
}

// releaseSecond releases a non-leading parameter: the fixpoint records
// the index, not just "releases something".
func releaseSecond(tag string, p *[]byte) {
	_ = tag
	putBlockBuf(p)
}

// chained releases through another helper: the fixpoint runs until the
// transitive closure is stable.
func chained(p *[]byte) {
	releaseLater(p)
}

// viaHelper is the v1 blind spot itself: no putBlockBuf identifier in
// sight, yet the buffer is correctly released. Must stay clean.
func viaHelper(n int) int {
	bufp := getBlockBuf(n)
	m := len(*bufp)
	releaseLater(bufp)
	return m
}

// viaChained releases two hops away. Must stay clean.
func viaChained(n int, tag string) {
	bufp := getBlockBuf(n)
	releaseSecond(tag, bufp)
}

// viaDeferredHelper defers the releasing helper. Must stay clean.
func viaDeferredHelper(n int) int {
	bufp := getBlockBuf(n)
	defer chained(bufp)
	return len(*bufp)
}

// inspect only reads; it releases nothing, so its callers still own
// the buffer.
func inspect(p *[]byte) int { return len(*p) }

func viaInspect(n int) int {
	bufp := getBlockBuf(n) // want `getBlockBuf result is never released`
	return inspect(bufp)
}

// newBuf wraps the acquisition: calling it is a get, and the caller
// owns the result.
func newBuf(n int) *[]byte {
	return getBlockBuf(n)
}

func viaSourceLeaked(n int) {
	bufp := newBuf(n) // want `getBlockBuf result is never released`
	_ = bufp
}

func viaSourceReleased(n int) int {
	bufp := newBuf(n)
	defer putBlockBuf(bufp)
	return len(*bufp)
}

// useAfterHelperPut: helper releases count for the ordering check too.
func useAfterHelperPut(n int) int {
	bufp := getBlockBuf(n)
	releaseLater(bufp)
	return len(*bufp) // want `use of bufp after putBlockBuf`
}
