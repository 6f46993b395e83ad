// Package deadlinefix exercises deadlineio under its enforcement path
// (internal/proto): naked Read/Write on unarmed conns, flow-insensitive
// arming, discipline through helpers, wraps, and stores.
package deadlinefix

import (
	"net"
	"time"
)

func readNaked(c net.Conn, p []byte) (int, error) {
	return c.Read(p) // want `Read on net.Conn c with no deadline armed`
}

func writeNaked(c net.Conn, p []byte) (int, error) {
	return c.Write(p) // want `Write on net.Conn c with no deadline armed`
}

func readArmed(c net.Conn, p []byte) (int, error) {
	c.SetReadDeadline(time.Now().Add(time.Second))
	return c.Read(p)
}

// writeGuarded arms under a config guard: arming is flow-insensitive,
// so the conditional still counts.
func writeGuarded(c net.Conn, p []byte, stall time.Duration) (int, error) {
	if stall > 0 {
		c.SetWriteDeadline(time.Now().Add(stall))
	}
	return c.Write(p)
}

// pump arms before its read loop: deadline-disciplined for param 0.
func pump(c net.Conn, p []byte) {
	c.SetDeadline(time.Now().Add(time.Minute))
	for {
		if _, err := c.Read(p); err != nil {
			return
		}
	}
}

// viaPump forwards to a disciplined helper, which makes it
// disciplined in turn (fixpoint).
func viaPump(c net.Conn, p []byte) {
	pump(c, p)
}

// sink never arms, absorbs, or blocks: housekeeping only.
func sink(c net.Conn) {
	_ = c.LocalAddr()
}

func viaSink(c net.Conn) {
	sink(c) // want `net.Conn c passed to sink with no deadline armed`
}

func viaSinkArmed(c net.Conn) {
	c.SetDeadline(time.Now().Add(time.Second))
	sink(c)
}

type counted struct {
	net.Conn
	n int
}

// wrap hands the conn to a wrapper type: an ownership transfer, not a
// blocking use.
func wrap(c net.Conn) net.Conn {
	return &counted{Conn: c}
}

type holder struct{ c net.Conn }

// adopt stores the conn into a longer-lived holder: also a transfer.
func (h *holder) adopt(c net.Conn) {
	h.c = c
}

// gather appends conns into a slice: append is a store, not a
// blocking use.
func gather(cs []net.Conn, c net.Conn) []net.Conn {
	return append(cs, c)
}

// dialAndRead: locally created conns are roots too.
func dialAndRead(p []byte) error {
	c, err := net.Dial("tcp", "localhost:0")
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Read(p) // want `Read on net.Conn c with no deadline armed`
	return err
}
