package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"

	"github.com/didclab/eta/internal/proto"
)

// bareCopy is the same-process reference for the transfer workloads:
// the fixture's files copied over loopback TCP with nothing else — no
// protocol, planning, checksums, journal or tracing. Each file is read
// from the source tree and sent whole over one of the transfer's
// connections, and the receiving side writes it into a reference tree
// emptied the way the program's destination is (durable workload) or
// discards it (bulk, whose sink keeps nothing). Pass times are divided
// by this copy's, so the host's TCP, page-cache and file-creation speed,
// which drift on a shared VM, cancel out of the metrics.
type bareCopy struct {
	ln    net.Listener
	fx    *fixture
	dest  string // "" discards the payload
	conns int
}

func newBareCopy(fx *fixture, dest string, conns int) (*bareCopy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if dest != "" {
		for _, ff := range fx.files {
			if err := os.MkdirAll(filepath.Dir(filepath.Join(dest, filepath.FromSlash(ff.name))), 0o755); err != nil {
				ln.Close()
				return nil, err
			}
		}
	}
	return &bareCopy{ln: ln, fx: fx, dest: dest, conns: conns}, nil
}

func (c *bareCopy) close() { c.ln.Close() }

// clear empties the reference tree the way resetDest empties the
// program's destination: same files, truncated to zero.
func (c *bareCopy) clear() error {
	if c.dest == "" {
		return nil
	}
	return resetDest(c.dest, c.fx)
}

// round copies every file once; file i travels on connection i%conns.
func (c *bareCopy) round() error {
	errs := make(chan error, 2*c.conns)
	for i := 0; i < c.conns; i++ {
		go func(i int) { errs <- c.send(i) }(i)
	}
	for i := 0; i < c.conns; i++ {
		conn, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("reference copy: %w", err)
		}
		go func() { errs <- c.receive(conn) }()
	}
	var first error
	for i := 0; i < 2*c.conns; i++ {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("reference copy: %w", err)
		}
	}
	return first
}

// plainWriter hides the connection's ReadFrom, so io.CopyBuffer copies
// through user space as the program does rather than by sendfile.
type plainWriter struct{ io.Writer }

func (c *bareCopy) send(idx int) error {
	conn, err := net.Dial("tcp", c.ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{byte(idx)}); err != nil {
		return err
	}
	buf := make([]byte, proto.DefaultBlockSize)
	for i := idx; i < len(c.fx.files); i += c.conns {
		f, err := os.Open(filepath.Join(c.fx.root, filepath.FromSlash(c.fx.files[i].name)))
		if err != nil {
			return err
		}
		n, err := io.CopyBuffer(plainWriter{conn}, struct{ io.Reader }{f}, buf)
		f.Close()
		if err != nil {
			return err
		}
		if n != c.fx.files[i].size {
			return fmt.Errorf("sent %d of %d bytes of %s", n, c.fx.files[i].size, c.fx.files[i].name)
		}
	}
	return nil
}

func (c *bareCopy) receive(conn net.Conn) error {
	defer conn.Close()
	var idx [1]byte
	if _, err := io.ReadFull(conn, idx[:]); err != nil {
		return err
	}
	buf := make([]byte, proto.DefaultBlockSize)
	for i := int(idx[0]); i < len(c.fx.files); i += c.conns {
		ff := c.fx.files[i]
		var w io.Writer = io.Discard
		var f *os.File
		path := filepath.Join(c.dest, filepath.FromSlash(ff.name))
		if c.dest != "" {
			// An empty marker file brackets the write, as the program's
			// partial marker does: file creation is the most expensive
			// and most variable filesystem operation on the VM, and the
			// reference must pay it as often as the program does.
			m, err := os.Create(path + ".partial")
			if err != nil {
				return err
			}
			m.Close()
			if f, err = os.Create(path); err != nil {
				return err
			}
			w = f
		}
		n, err := io.CopyBuffer(plainWriter{w}, io.LimitReader(conn, ff.size), buf)
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if rerr := os.Remove(path + ".partial"); err == nil {
				err = rerr
			}
		}
		if err != nil {
			return err
		}
		if n != ff.size {
			return fmt.Errorf("received %d of %d bytes of %s", n, ff.size, ff.name)
		}
	}
	return nil
}
