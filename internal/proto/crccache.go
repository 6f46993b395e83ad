package proto

import "sync"

// crcCache is the server's CRC-32C sidecar cache: for each file it
// remembers the checksum of every block-size tile, keyed by the file's
// identity (size + modification token from the store's Versioner
// extension). On a repeat serve of an unchanged file the serve loop
// skips re-hashing payload bytes (and, on the sendfile path, reading
// them at all): the cached tile CRCs are combined into the whole-range
// checksum with CRC32CCombine instead. Tiles are the same shape the
// client's combineBlocks works in, so the cached sidecar and the
// client-side verification agree by construction.
//
// A file whose size, token or tile width changes is recomputed from
// scratch; entries are evicted FIFO past the capacity bound, so a
// server cycling through a huge corpus holds at most maxEntries
// sidecars.
type crcCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*crcEntry
	fifo    []string
}

// defaultCRCCacheEntries bounds the sidecar cache. A sidecar costs
// ~5 bytes per tile (4 for the CRC, 1 for the have bit), so even 64 Ki
// files of 1000 blocks each stay around 300 MB worst-case; typical
// corpora are far smaller.
const defaultCRCCacheEntries = 64 * 1024

// crcEntry is one file's sidecar.
type crcEntry struct {
	size  int64
	mtime int64 // the store's modification token, compared for equality only
	tile  int64
	crcs  []uint32
	have  []bool
}

func newCRCCache(maxEntries int) *crcCache {
	if maxEntries <= 0 {
		maxEntries = defaultCRCCacheEntries
	}
	return &crcCache{max: maxEntries, entries: make(map[string]*crcEntry)}
}

// open returns the sidecar for one file at the given identity and tile
// width, invalidating and rebuilding it when any of those changed.
func (c *crcCache) open(name string, size, mtime int64, tile int) *crcSidecar {
	if size < 0 || tile <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[name]
	if e == nil {
		if len(c.fifo) >= c.max {
			evict := c.fifo[0]
			c.fifo = c.fifo[1:]
			delete(c.entries, evict)
		}
		c.fifo = append(c.fifo, name)
	}
	if e == nil || e.size != size || e.mtime != mtime || e.tile != int64(tile) {
		n := int((size + int64(tile) - 1) / int64(tile))
		e = &crcEntry{
			size:  size,
			mtime: mtime,
			tile:  int64(tile),
			crcs:  make([]uint32, n),
			have:  make([]bool, n),
		}
		c.entries[name] = e
	}
	return &crcSidecar{cache: c, entry: e}
}

// crcSidecar is one serve's view of a cached sidecar. Lookups and
// stores address tiles by absolute file offset; only offsets on a tile
// boundary whose extent runs to the next boundary (or to end-of-file)
// are cacheable, so partial reads of a tile never poison it.
type crcSidecar struct {
	cache *crcCache
	entry *crcEntry
}

// tileIndex validates that [off, off+n) is exactly one tile of the
// entry and returns its index.
func (s *crcSidecar) tileIndex(off int64, n int64) (int, bool) {
	e := s.entry
	if off < 0 || n <= 0 || off%e.tile != 0 {
		return 0, false
	}
	if n != e.tile && off+n != e.size {
		return 0, false
	}
	idx := int(off / e.tile)
	if idx >= len(e.crcs) || off+n > e.size {
		return 0, false
	}
	return idx, true
}

// lookup returns the cached CRC of the tile at [off, off+n), if known.
func (s *crcSidecar) lookup(off, n int64) (uint32, bool) {
	if s == nil {
		return 0, false
	}
	idx, ok := s.tileIndex(off, n)
	if !ok {
		return 0, false
	}
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	if !s.entry.have[idx] {
		return 0, false
	}
	return s.entry.crcs[idx], true
}

// store records the freshly computed CRC of the tile at [off, off+n).
// Ranges that are not exactly one tile are ignored.
func (s *crcSidecar) store(off, n int64, crc uint32) {
	if s == nil {
		return
	}
	idx, ok := s.tileIndex(off, n)
	if !ok {
		return
	}
	s.cache.mu.Lock()
	s.entry.crcs[idx] = crc
	s.entry.have[idx] = true
	s.cache.mu.Unlock()
}

// len reports how many entries the cache holds (for tests).
func (c *crcCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
