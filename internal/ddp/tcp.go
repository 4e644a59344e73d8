package ddp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// TCPTransport frames batched feature requests over loopback TCP: one
// listener per replica, one persistent connection per (caller, callee)
// pair, length-prefixed frames in both directions. Every replica lives
// in this process; the codec tests prove the frames round-trip
// bit-exactly through a real socket.
type TCPTransport struct {
	mu        sync.Mutex
	listeners []net.Listener
	addrs     []string
	conns     map[[2]int]*tcpConn
	handlers  []Handler
	closed    bool
	serving   sync.WaitGroup
}

// tcpConn is one caller→callee connection, serialised by its own lock
// so concurrent calls from a replica's sampling workers interleave
// frame-atomically.
type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
}

// NewTCPTransport returns an unbound loopback-TCP transport.
func NewTCPTransport() *TCPTransport {
	return &TCPTransport{conns: make(map[[2]int]*tcpConn)}
}

// Bind implements Transport: it starts one loopback listener per
// replica and serves inbound frames on accepted connections.
func (t *TCPTransport) Bind(handlers []Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.handlers != nil {
		return fmt.Errorf("ddp: tcp transport already bound")
	}
	if len(handlers) == 0 {
		return fmt.Errorf("ddp: tcp transport bound with no handlers")
	}
	for r := range handlers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.closeLocked()
			return fmt.Errorf("ddp: replica %d listener: %w", r, err)
		}
		t.listeners = append(t.listeners, ln)
		t.addrs = append(t.addrs, ln.Addr().String())
		t.serving.Add(1)
		go t.acceptLoop(ln, handlers[r])
	}
	t.handlers = handlers
	return nil
}

// acceptLoop serves one replica's listener until Close.
func (t *TCPTransport) acceptLoop(ln net.Listener, h Handler) {
	defer t.serving.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.serving.Add(1)
		go func() {
			defer t.serving.Done()
			defer conn.Close()
			for {
				payload, err := readFrame(conn)
				if err != nil {
					return // peer hung up (or Close tore the conn down)
				}
				var resp *Response
				req, err := decodeRequest(payload)
				if err == nil {
					resp, err = h(req)
				}
				if werr := writeFrame(conn, encodeResponse(resp, err)); werr != nil {
					return
				}
			}
		}()
	}
}

// Call implements Transport.
func (t *TCPTransport) Call(to int, req *Request) (*Response, error) {
	conn, err := t.dial(req.From, to)
	if err != nil {
		return nil, err
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if err := writeFrame(conn.c, encodeRequest(req)); err != nil {
		return nil, fmt.Errorf("ddp: tcp call to replica %d: %w", to, err)
	}
	payload, err := readFrame(conn.c)
	if err != nil {
		return nil, fmt.Errorf("ddp: tcp response from replica %d: %w", to, err)
	}
	return decodeResponse(payload)
}

// dial returns the persistent (from, to) connection, creating it on
// first use.
func (t *TCPTransport) dial(from, to int) (*tcpConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("ddp: tcp transport is closed")
	}
	if t.handlers == nil {
		return nil, fmt.Errorf("ddp: tcp transport not bound")
	}
	if to < 0 || to >= len(t.addrs) {
		return nil, fmt.Errorf("ddp: call to replica %d of %d", to, len(t.addrs))
	}
	key := [2]int{from, to}
	if c, ok := t.conns[key]; ok {
		return c, nil
	}
	c, err := net.Dial("tcp", t.addrs[to])
	if err != nil {
		return nil, fmt.Errorf("ddp: dialing replica %d: %w", to, err)
	}
	tc := &tcpConn{c: c}
	t.conns[key] = tc
	return tc, nil
}

// Name implements Transport.
func (t *TCPTransport) Name() string { return "tcp" }

// Close implements Transport: it tears down every listener and
// connection and waits for the serve goroutines to drain.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	err := t.closeLocked()
	t.mu.Unlock()
	t.serving.Wait()
	return err
}

func (t *TCPTransport) closeLocked() error {
	if t.closed {
		return nil
	}
	t.closed = true
	var first error
	for _, ln := range t.listeners {
		if err := ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, c := range t.conns {
		if err := c.c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("ddp: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("ddp: frame length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
