//go:build !linux

package proto

import (
	"errors"
	"io/fs"
	"net"
	"os"
)

// fileSender is Linux-only (sys_linux.go). Elsewhere no stream takes
// file-backed blocks, so every block goes through the buffered writev
// path.
type fileSender struct{}

func newFileSender(net.Conn) *fileSender { return nil }

func (*fileSender) send(*os.File, int64, int64) (int64, error) {
	return 0, errors.ErrUnsupported
}

// versionToken is DirStore.Version's modification token; without a
// portable ctime and inode it is the mtime alone.
func versionToken(info fs.FileInfo) int64 { return info.ModTime().UnixNano() }
