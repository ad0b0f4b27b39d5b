// Binary transport: the latency-critical operations (establish,
// establishAll, multicast, release, reconfigure, stats) optionally
// travel over rtetherd's binary listener (wire binary framing) instead
// of HTTP/JSON. The selection is transparent — same methods, same typed
// errors (a feasibility rejection is still a *rtether.AdmissionError) —
// only the bytes on the socket change. Everything else (watch streams,
// topics, metrics, health) always uses HTTP/JSON.
//
// A Client keeps one persistent connection, dialed on first use and
// redialed once it dies, and pipelines concurrent requests on it with
// per-request IDs, so N goroutines issuing establishes present the
// server's coalescer with the same concurrency as N parallel HTTP
// requests — merged admission flights work identically under either
// transport. Requests issued while a write is in flight leave together
// in the next write(2); the writing caller yields once before its first
// write so that callers woken by the same reply burst can join it.
// Which operations travel this way is declared by the op table of
// rtether/wire: those with a binary message pair.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/rtether/wire"
)

// Transport selects the wire encoding for the latency-critical calls.
type Transport int

const (
	// TransportJSON (the default) sends every call over HTTP/JSON.
	TransportJSON Transport = iota
	// TransportBinary sends establish/establishAll/multicast/release/
	// reconfigure/stats over the binary listener (WithBinaryAddr);
	// everything else stays on HTTP/JSON.
	TransportBinary
)

// ErrNoBinaryAddr is returned by binary-transport calls when no binary
// listener address was configured.
var ErrNoBinaryAddr = errors.New("client: binary transport selected but no binary address configured (WithBinaryAddr)")

// WithTransport selects the transport for the latency-critical calls.
func WithTransport(t Transport) Option {
	return func(c *Client) { c.transport = t }
}

// WithBinaryAddr sets the daemon's binary listener address
// ("host:port", rtetherd -binaddr).
func WithBinaryAddr(addr string) Option {
	return func(c *Client) { c.binAddr = addr }
}

// binConn returns the client's one binary connection, dialing it on
// first use and again once it has died (a daemon restart).
func (c *Client) binConn() (*binConn, error) {
	if c.binAddr == "" {
		return nil, ErrNoBinaryAddr
	}
	c.binMu.Lock()
	defer c.binMu.Unlock()
	if c.bin == nil || c.bin.dead() {
		nc, err := net.Dial("tcp", c.binAddr)
		if err != nil {
			return nil, fmt.Errorf("client: dialing binary listener: %w", err)
		}
		c.bin = newBinConn(nc)
	}
	return c.bin, nil
}

// binConn is one persistent pipelined connection: a wire.GroupWriter
// that callers flush as a group, and a reader goroutine that
// demultiplexes reply frames to the waiting requests by ID.
type binConn struct {
	c net.Conn
	w *wire.GroupWriter

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan wire.Frame
	err     error // set once the connection is dead
}

func newBinConn(c net.Conn) *binConn {
	bc := &binConn{c: c, w: wire.NewGroupWriter(c), pending: make(map[uint32]chan wire.Frame)}
	go bc.readLoop()
	return bc
}

func (bc *binConn) dead() bool {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.err != nil
}

// close marks the connection dead and fails every in-flight request:
// pending channels are closed, which waiters observe as a transport
// error.
func (bc *binConn) close(err error) {
	bc.mu.Lock()
	if bc.err == nil {
		bc.err = err
		for id, ch := range bc.pending {
			close(ch)
			delete(bc.pending, id)
		}
	}
	bc.mu.Unlock()
	bc.c.Close()
}

// readLoop demultiplexes reply frames until the connection dies.
func (bc *binConn) readLoop() {
	br := bufio.NewReader(bc.c) // header and payload of a reply in one read(2)
	var buf []byte
	for {
		f, nbuf, err := wire.ReadFrame(br, buf)
		buf = nbuf
		if err != nil {
			bc.close(fmt.Errorf("client: binary connection: %w", err))
			return
		}
		bc.mu.Lock()
		ch, ok := bc.pending[f.ReqID]
		delete(bc.pending, f.ReqID)
		bc.mu.Unlock()
		if !ok {
			continue // abandoned request (context canceled before the reply)
		}
		// The payload aliases the read buffer; copy for the waiter.
		ch <- wire.Frame{Type: f.Type, ReqID: f.ReqID, Payload: append([]byte(nil), f.Payload...)}
	}
}

// send registers a fresh request ID, queues the frame enc encodes for
// it on the group writer and returns the reply channel. The request is
// in pending before its bytes are queued, so a failed write, which
// closes the connection, fails it and every other queued request. A
// frame the group writer refuses as too large (wire.ErrFrameTooLarge)
// never reaches the daemon: the request is refused as a bad request,
// and the connection stays up.
func (bc *binConn) send(enc func(dst []byte, reqID uint32) []byte) (uint32, chan wire.Frame, error) {
	ch := make(chan wire.Frame, 1)
	bc.mu.Lock()
	if bc.err != nil {
		err := bc.err
		bc.mu.Unlock()
		return 0, nil, err
	}
	bc.nextID++
	id := bc.nextID
	bc.pending[id] = ch
	bc.mu.Unlock()
	err := bc.w.Queue(func(dst []byte) []byte { return enc(dst, id) })
	if errors.Is(err, wire.ErrFrameTooLarge) {
		bc.abandon(id)
		return 0, nil, &wire.Error{Code: wire.CodeBadRequest, Message: fmt.Sprintf(
			"client: request refused: %v, past the binary frame limit of %d bytes", err, wire.MaxFramePayload)}
	}
	if err != nil {
		bc.close(fmt.Errorf("client: binary connection: %w", err))
	}
	return id, ch, nil
}

// abandon unregisters a request whose caller gave up waiting.
func (bc *binConn) abandon(id uint32) {
	bc.mu.Lock()
	delete(bc.pending, id)
	bc.mu.Unlock()
}

// binCall runs one binary round trip: encode with enc, wait for the
// reply frame, map MsgError to the typed error, and require wantType
// otherwise.
func (c *Client) binCall(ctx context.Context, wantType wire.MsgType, enc func(dst []byte, reqID uint32) []byte) (wire.Frame, error) {
	bc, err := c.binConn()
	if err != nil {
		return wire.Frame{}, err
	}
	id, ch, err := bc.send(enc)
	if err != nil {
		return wire.Frame{}, err
	}
	select {
	case f, ok := <-ch:
		if !ok {
			bc.mu.Lock()
			err := bc.err
			bc.mu.Unlock()
			return wire.Frame{}, err
		}
		if f.Type == wire.MsgError {
			we, derr := wire.DecodeError(f.Payload)
			if derr != nil {
				return wire.Frame{}, fmt.Errorf("client: decoding error reply: %w", derr)
			}
			return wire.Frame{}, goError(we)
		}
		if f.Type != wantType {
			return wire.Frame{}, fmt.Errorf("client: unexpected reply type %#x (want %#x)", uint8(f.Type), uint8(wantType))
		}
		return f, nil
	case <-ctx.Done():
		bc.abandon(id)
		return wire.Frame{}, ctx.Err()
	}
}
