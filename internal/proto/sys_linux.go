//go:build linux

package proto

import (
	"io/fs"
	"net"
	"os"
	"syscall"
)

// fileSender moves file ranges onto one TCP data stream with
// sendfile(2), so a warm block goes from the page cache to the socket
// without a pread into user space or a copy back out. A serve builds
// one per stream and GET; a send allocates nothing, because the
// RawConn callback is bound once and its state lives here.
//
// The offset is always explicit. Writers striping one file share its
// descriptor, so the descriptor's own position — which sendfile with a
// nil offset (and the stdlib's (*net.TCPConn).ReadFrom(*os.File))
// advances — would race between them.
type fileSender struct {
	raw    syscall.RawConn
	src    int
	off    int64
	remain int64
	err    error
	step   func(fd uintptr) bool
}

// newFileSender returns a sender for conn, or nil when conn is not a
// TCP connection (a net.Pipe, a wrapped conn) and so cannot take
// file-backed blocks.
func newFileSender(conn net.Conn) *fileSender {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return nil
	}
	raw, err := tc.SyscallConn()
	if err != nil {
		return nil
	}
	s := &fileSender{raw: raw}
	s.step = s.sendStep
	return s
}

// send writes n bytes of f from offset off and returns how many went
// out. A short count with a nil error means f ended before off+n. The
// caller arms the write deadline: RawConn.Write waits on the poller
// whenever the socket is full, and that wait honours it.
func (s *fileSender) send(f *os.File, off, n int64) (int64, error) {
	s.src, s.off, s.remain, s.err = int(f.Fd()), off, n, nil
	if err := s.raw.Write(s.step); err != nil {
		return n - s.remain, err
	}
	return n - s.remain, s.err
}

// sendStep runs inside RawConn.Write. Returning false parks the writer
// until the socket drains; the kernel advances s.off past every byte
// it sent.
func (s *fileSender) sendStep(fd uintptr) bool {
	for s.remain > 0 {
		w, err := syscall.Sendfile(int(fd), s.src, &s.off, int(s.remain))
		if w > 0 {
			s.remain -= int64(w)
		}
		switch {
		case err == syscall.EAGAIN:
			return false
		case err == syscall.EINTR:
		case err != nil:
			s.err = err
			return true
		case w == 0:
			return true // end of file
		}
	}
	return true
}

// versionToken is DirStore.Version's modification token: mtime folded
// with the inode's change time and number. Restoring a rewritten
// file's mtime (cp -p, rsync -t, touch -r) cannot restore its ctime,
// and a file replaced by rename has a new inode, so neither serves a
// stale sidecar. The fold is FNV-1a's step over the three words.
func versionToken(info fs.FileInfo) int64 {
	mtime := info.ModTime().UnixNano()
	st, ok := info.Sys().(*syscall.Stat_t)
	if !ok {
		return mtime
	}
	const prime = 1099511628211
	h := uint64(mtime)
	h = (h ^ uint64(st.Ctim.Nano())) * prime
	h = (h ^ uint64(st.Ino)) * prime
	return int64(h)
}
