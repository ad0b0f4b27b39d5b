// Binary transport: the latency-critical operations (establish,
// establishAll, multicast, release, reconfigure, stats) optionally
// travel over rtetherd's binary listener (wire binary framing) instead
// of HTTP/JSON. The selection is transparent — same methods, same typed
// errors (a feasibility rejection is still a *rtether.AdmissionError) —
// only the bytes on the socket change. Everything else (watch streams,
// topics, metrics, health) always uses HTTP/JSON.
//
// The transport keeps a small pool of persistent connections and
// pipelines concurrent requests on them with per-request IDs, so N
// goroutines issuing establishes present the server's coalescer with
// the same concurrency as N parallel HTTP requests — merged admission
// flights work identically under either transport.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/rtether"
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
	return func(c *Client) { c.bin = newBinPool(addr) }
}

// binPool is a fixed-size pool of persistent pipelined connections.
// Requests round-robin across the pool; each connection multiplexes any
// number of in-flight requests by ID.
type binPool struct {
	addr string
	mu   sync.Mutex
	conn []*binConn
	next int
}

// binPoolSize is the number of persistent connections the pool grows
// to. Pipelining carries the concurrency; a few sockets are only there
// to spread kernel-side wakeups.
const binPoolSize = 4

func newBinPool(addr string) *binPool {
	return &binPool{addr: addr}
}

// get returns a live connection, dialing if the pool has room or the
// slot's previous connection died.
func (p *binPool) get() (*binConn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.conn) > 0 {
		for range p.conn {
			bc := p.conn[p.next%len(p.conn)]
			p.next++
			if !bc.dead() {
				return bc, nil
			}
		}
		// Every pooled connection died (daemon restart): drop them all
		// and redial below.
		p.conn = p.conn[:0]
	}
	c, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("client: dialing binary listener: %w", err)
	}
	bc := newBinConn(c)
	if len(p.conn) < binPoolSize {
		p.conn = append(p.conn, bc)
	}
	return bc, nil
}

// closeIdle tears the pool down; in-flight requests fail over to a
// fresh dial on the next call.
func (p *binPool) closeIdle() {
	p.mu.Lock()
	conns := p.conn
	p.conn = nil
	p.next = 0
	p.mu.Unlock()
	for _, bc := range conns {
		bc.close(errors.New("client: connection pool closed"))
	}
}

// binConn is one persistent pipelined connection: a writer side guarded
// by a mutex over a reused encode buffer, and a reader goroutine that
// demultiplexes reply frames to the waiting requests by ID.
type binConn struct {
	c    net.Conn
	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan wire.Frame
	err     error // set once the connection is dead
}

func newBinConn(c net.Conn) *binConn {
	bc := &binConn{c: c, pending: make(map[uint32]chan wire.Frame)}
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

// send registers a fresh request ID, encodes the frame with enc under
// the write lock and ships it, returning the reply channel.
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

	bc.wmu.Lock()
	bc.wbuf = enc(bc.wbuf[:0], id)
	_, err := bc.c.Write(bc.wbuf)
	bc.wmu.Unlock()
	if err != nil {
		bc.close(fmt.Errorf("client: binary connection: %w", err))
		return 0, nil, err
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
	if c.bin == nil {
		return wire.Frame{}, ErrNoBinaryAddr
	}
	bc, err := c.bin.get()
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
			if err == nil {
				err = errors.New("client: binary connection closed")
			}
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

// ---- binary counterparts of the latency-critical calls ----

func (c *Client) binEstablish(ctx context.Context, spec rtether.ChannelSpec) (Channel, error) {
	ws := wire.FromSpec(spec)
	f, err := c.binCall(ctx, wire.MsgChannel, func(dst []byte, id uint32) []byte {
		return wire.AppendEstablish(dst, id, ws)
	})
	if err != nil {
		return Channel{}, err
	}
	rep, err := wire.DecodeChannelReply(f.Payload)
	if err != nil {
		return Channel{}, fmt.Errorf("client: decoding channel reply: %w", err)
	}
	return channelOf(rep), nil
}

func (c *Client) binEstablishMulticast(ctx context.Context, spec rtether.MulticastSpec) (Channel, error) {
	ws := wire.FromMulticastSpec(spec)
	f, err := c.binCall(ctx, wire.MsgChannel, func(dst []byte, id uint32) []byte {
		return wire.AppendMulticast(dst, id, ws)
	})
	if err != nil {
		return Channel{}, err
	}
	rep, err := wire.DecodeChannelReply(f.Payload)
	if err != nil {
		return Channel{}, fmt.Errorf("client: decoding channel reply: %w", err)
	}
	return channelOf(rep), nil
}

func (c *Client) binEstablishAll(ctx context.Context, specs []rtether.ChannelSpec) ([]Channel, error) {
	wspecs := make([]wire.Spec, len(specs))
	for i, s := range specs {
		wspecs[i] = wire.FromSpec(s)
	}
	f, err := c.binCall(ctx, wire.MsgChannelList, func(dst []byte, id uint32) []byte {
		return wire.AppendEstablishAll(dst, id, wspecs)
	})
	if err != nil {
		return nil, err
	}
	rep, err := wire.DecodeChannelList(f.Payload)
	if err != nil {
		return nil, fmt.Errorf("client: decoding channel list: %w", err)
	}
	chs := make([]Channel, len(rep.Channels))
	for i, ch := range rep.Channels {
		chs[i] = channelOf(ch)
	}
	return chs, nil
}

func (c *Client) binRelease(ctx context.Context, id rtether.ChannelID) error {
	_, err := c.binCall(ctx, wire.MsgReleased, func(dst []byte, req uint32) []byte {
		return wire.AppendRelease(dst, req, uint32(id))
	})
	return err
}

func (c *Client) binReconfigure(ctx context.Context, req wire.ReconfigureRequest) (Channel, error) {
	f, err := c.binCall(ctx, wire.MsgChannel, func(dst []byte, id uint32) []byte {
		return wire.AppendReconfigure(dst, id, req)
	})
	if err != nil {
		return Channel{}, err
	}
	rep, err := wire.DecodeChannelReply(f.Payload)
	if err != nil {
		return Channel{}, fmt.Errorf("client: decoding channel reply: %w", err)
	}
	return channelOf(rep), nil
}

func (c *Client) binStats(ctx context.Context) (wire.StatsReply, error) {
	f, err := c.binCall(ctx, wire.MsgStatsReply, wire.AppendStats)
	if err != nil {
		return wire.StatsReply{}, err
	}
	rep, err := wire.DecodeStatsReply(f.Payload)
	if err != nil {
		return wire.StatsReply{}, fmt.Errorf("client: decoding stats reply: %w", err)
	}
	return rep, nil
}
