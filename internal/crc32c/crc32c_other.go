//go:build !amd64

package crc32c

// The kernel is amd64-only; every other architecture uses hash/crc32.

const hasKernel = false

var useKernel = false

func fold(uint32, []byte) uint32 { panic("crc32c: no folding kernel on this architecture") }
