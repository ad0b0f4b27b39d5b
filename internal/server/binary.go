package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/obs"
	"repro/rtether"
	"repro/rtether/wire"
)

// ServeBinary accepts connections on l and serves the binary framing of
// rtether/wire (the operations its op table gives a message pair) until
// the listener closes or the server is Closed. Each connection carries
// pipelined frames, handled concurrently by up to maxBatch handler
// goroutines per connection — so concurrent frames from one connection
// coalesce into merged admission flights exactly like concurrent HTTP
// requests — and replies are written back whenever their verdict lands,
// matched by request ID, not in request order. Replies that land while
// a write is in flight leave together in the next write(2); the writer
// yields once before its first write so that handlers finishing other
// frames of the same read can join it (wire.GroupWriter).
//
// Verdicts feed the same watch hub, log and counters as the HTTP
// handlers; the two listeners are one service on one network.
func (s *Server) ServeBinary(l net.Listener) error {
	s.binMu.Lock()
	if s.binClosed {
		s.binMu.Unlock()
		l.Close()
		return rtether.ErrClosed
	}
	s.binListeners = append(s.binListeners, l)
	s.binMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.binMu.Lock()
		if s.binClosed {
			s.binMu.Unlock()
			conn.Close()
			return nil
		}
		if s.binConns == nil {
			s.binConns = make(map[net.Conn]struct{})
		}
		s.binConns[conn] = struct{}{}
		s.binMu.Unlock()
		go s.serveBinaryConn(conn)
	}
}

// closeBinary tears down every binary listener and connection. Called
// from Close.
func (s *Server) closeBinary() {
	s.binMu.Lock()
	s.binClosed = true
	ls, conns := s.binListeners, s.binConns
	s.binListeners, s.binConns = nil, nil
	s.binMu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for c := range conns {
		c.Close()
	}
}

// dropBinaryConn unregisters a finished connection.
func (s *Server) dropBinaryConn(c net.Conn) {
	s.binMu.Lock()
	delete(s.binConns, c)
	s.binMu.Unlock()
}

// binConn writes one connection's replies through a wire.GroupWriter:
// a handler that finds a write in progress queues its reply and
// returns, the leader writes everything queued in one write(2), and
// a peer that does not read stalls the handlers once wire.MaxQueued
// reply bytes wait behind the write in progress (and, past maxBatch
// handlers, the reader).
type binConn struct {
	s    *Server
	conn net.Conn
	w    *wire.GroupWriter
}

func newBinConn(s *Server, conn net.Conn) *binConn {
	return &binConn{s: s, conn: conn, w: wire.NewGroupWriter(countedWrites{conn, s.metrics.binWrites})}
}

// countedWrites counts the writes made to a connection.
type countedWrites struct {
	net.Conn
	n *obs.Counter
}

func (c countedWrites) Write(p []byte) (int, error) {
	c.n.Inc()
	return c.Conn.Write(p)
}

// send queues the reply frame enc encodes for request reqID, or a
// bad_request error frame if the group writer refuses it as too large. A
// write failure kills the connection; the reader loop notices and winds
// the connection down, and every reply still queued is dropped.
func (bc *binConn) send(reqID uint32, enc func(dst []byte) []byte) {
	err := bc.w.Queue(enc)
	if errors.Is(err, wire.ErrFrameTooLarge) {
		we := &wire.Error{Code: wire.CodeBadRequest, Message: fmt.Sprintf("rtetherd: reply refused: %v, past the binary frame limit of %d bytes", err, wire.MaxFramePayload)}
		err = bc.w.Queue(func(dst []byte) []byte { return wire.AppendError(dst, reqID, we) })
	}
	if err != nil {
		bc.conn.Close()
	}
}

// sendErr ships an error envelope reply.
func (bc *binConn) sendErr(reqID uint32, we *wire.Error) {
	bc.send(reqID, func(dst []byte) []byte { return wire.AppendError(dst, reqID, we) })
}

// serveBinaryConn runs one connection's read loop. The per-connection
// context cancels when the connection goes away, so establishes queued
// in the coalescer for a vanished peer are released like abandoned HTTP
// requests.
func (s *Server) serveBinaryConn(conn net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		conn.Close()
		s.dropBinaryConn(conn)
		wg.Wait()
	}()
	bc := newBinConn(s, conn)
	br := bufio.NewReaderSize(conn, 64<<10)
	// Frames go to the connection's idle handlers. A frame no idle
	// handler takes starts one more, up to maxBatch; past that the reader
	// waits, so a peer that pipelines without reading its replies stalls
	// on its own socket instead of growing the daemon. Handlers live as
	// long as the connection: a fresh goroutine per frame would grow its
	// stack again on every request.
	frames := make(chan wire.Frame)
	defer close(frames) // runs before the wg.Wait above
	handlers := 0
	handle := func(f wire.Frame) {
		defer wg.Done()
		for ok := true; ok; f, ok = <-frames {
			bc.dispatch(ctx, f.Type, f.ReqID, f.Payload)
		}
	}
	var buf []byte
	for {
		f, nbuf, err := wire.ReadFrame(br, buf)
		buf = nbuf
		if err != nil {
			// Framing is stateful: after a bad or truncated frame the byte
			// stream cannot be trusted, so the connection ends here. (A
			// clean peer close lands here as io.EOF.)
			return
		}
		// The payload aliases the read buffer, which the next ReadFrame
		// reuses — copy before handing it to a concurrent handler.
		f.Payload = append([]byte(nil), f.Payload...)
		select {
		case frames <- f:
		default:
			if handlers < maxBatch {
				handlers++
				wg.Add(1)
				go handle(f)
			} else {
				frames <- f
			}
		}
	}
}

// badFrame builds the bad_request envelope for an undecodable payload.
func badFrame(t wire.MsgType, err error) *wire.Error {
	return &wire.Error{Code: wire.CodeBadRequest, Message: fmt.Sprintf("rtetherd: decoding %#x frame: %v", uint8(t), err)}
}

// dispatch executes one request frame through its op, writing exactly
// one reply frame with the same request ID.
func (bc *binConn) dispatch(ctx context.Context, t wire.MsgType, reqID uint32, payload []byte) {
	op := bc.s.frames[t]
	if op == nil {
		bc.sendErr(reqID, &wire.Error{Code: wire.CodeBadRequest, Message: fmt.Sprintf("rtetherd: unknown message type %#x", uint8(t))})
		return
	}
	op.frame(ctx, bc, reqID, payload)
}
