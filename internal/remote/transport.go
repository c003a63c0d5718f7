package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Transport moves Messages between the two halves of the distributed
// platform. Implementations must allow concurrent Send calls and one Recv
// at a time — the peer passes the right to call Recv from goroutine to
// goroutine (recv.go's readOwner), never shares it. Senders retain
// ownership of the message they pass to Send and may reuse it once Send
// returns; received messages are owned by the receiver.
type Transport interface {
	Send(*Message) error
	// Recv blocks for the next message; it returns an error once the
	// transport closes.
	Recv() (*Message, error)
	Close() error
}

// RecvInterrupter is the optional capability that lets a peer pass the
// connection's read side between goroutines (readOwner). The built-in
// transports and the fault injector have it; over a Transport without it
// the peer keeps one dedicated receiver.
type RecvInterrupter interface {
	// InterruptRecv makes the Recv waiting for a frame to begin — or, if
	// none is, the next Recv — return ErrRecvInterrupted. A Recv that has
	// started on a frame finishes it: an interrupt never consumes or splits
	// one. Interrupts collapse, and a Recv may return ErrRecvInterrupted
	// spuriously; callers re-check why they asked. It reports false, having
	// done nothing, if the transport cannot interrupt (a wrapper over one
	// without the capability).
	InterruptRecv() bool
}

// ErrRecvInterrupted is Recv cut short by InterruptRecv; the next Recv
// resumes at the same frame boundary.
var ErrRecvInterrupted = errors.New("remote: recv interrupted")

// chanTransport is an in-process transport over paired channels, used for
// single-process experiments and tests. Messages cross the channel as a
// fresh copy produced by an encode/decode round trip through the binary
// codec, so the two peers never alias mutable state (and the in-process
// path exercises exactly the bytes the TCP path would carry).
type chanTransport struct {
	out chan<- *Message
	in  <-chan *Message

	// closed is shared by both ends, so once — guarding its close — is too:
	// the two sides of a platform routinely close at the same moment.
	once   *sync.Once
	closed chan struct{}

	intr chan struct{} // the pending InterruptRecv; capacity 1, so they collapse
}

// NewChannelPair returns two connected in-memory transports.
func NewChannelPair() (Transport, Transport) {
	ab := make(chan *Message, 64)
	ba := make(chan *Message, 64)
	closed := make(chan struct{})
	once := new(sync.Once)
	a := &chanTransport{out: ab, in: ba, closed: closed, once: once, intr: make(chan struct{}, 1)}
	b := &chanTransport{out: ba, in: ab, closed: closed, once: once, intr: make(chan struct{}, 1)}
	return a, b
}

func (t *chanTransport) Send(m *Message) error {
	// Check for closure first: with buffered channels a racing select
	// could otherwise accept a message into a dead transport.
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	cp, err := copyMessage(m)
	if err != nil {
		return err
	}
	select {
	case <-t.closed:
		return ErrClosed
	case t.out <- cp:
		return nil
	}
}

// copyMessage deep-copies m via the binary codec so the receiver shares
// no memory with the sender; both carry the frame's length.
func copyMessage(m *Message) (*Message, error) {
	bp := getFrameBuf()
	buf, _, err := encodeFrame((*bp)[:0], m)
	if err != nil {
		putFrameBuf(bp, *bp)
		return nil, fmt.Errorf("remote: chan send: %w", err)
	}
	cp, err := decodeMessage(buf[prefixRoom:])
	putFrameBuf(bp, buf)
	if err != nil {
		return nil, fmt.Errorf("remote: chan send: %w", err)
	}
	cp.Wire = m.Wire
	return cp, nil
}

func (t *chanTransport) Recv() (*Message, error) {
	// Drain queued messages before honoring closure: Close-time release
	// flushes are sent just before the transport closes, and the select
	// below chooses randomly when both cases are ready.
	select {
	case m := <-t.in:
		return m, nil
	default:
	}
	select {
	case <-t.closed:
		select {
		case m := <-t.in:
			return m, nil
		default:
		}
		return nil, ErrClosed
	case m := <-t.in:
		return m, nil
	case <-t.intr:
		return nil, ErrRecvInterrupted
	}
}

// InterruptRecv implements RecvInterrupter; a message is one channel
// element, so every wake-up is at a frame boundary.
func (t *chanTransport) InterruptRecv() bool {
	select {
	case t.intr <- struct{}{}:
	default:
	}
	return true
}

func (t *chanTransport) Close() error {
	t.once.Do(func() { close(t.closed) })
	return nil
}

// binTransport frames Messages with the hand-rolled binary codec over a
// single connection — the ad-hoc platform's wire protocol between a
// client device and a surrogate server. Each frame is a uvarint length
// prefix followed by the payload (codec.go); encode buffers are pooled
// and the read side reuses one buffer across frames.
type binTransport struct {
	conn net.Conn
	w    *bufio.Writer
	r    frameReader

	readBuf []byte

	// recvMu guards the interruptible part of Recv: waiting is set while it
	// waits for a frame's first byte, the only time InterruptRecv may kick
	// it (a read deadline in the past); pending is the interrupt owed to
	// the next wait.
	recvMu           sync.Mutex
	waiting, pending bool

	sendMu  sync.Mutex
	closeMu sync.Mutex
	closed  bool
}

var _ RecvInterrupter = (*binTransport)(nil)

// NewConnTransport wraps a connected net.Conn in the binary-codec
// transport, the only framing the platform speaks over a socket.
func NewConnTransport(conn net.Conn) Transport {
	return &binTransport{
		conn: conn,
		w:    bufio.NewWriter(conn),
		r:    frameReader{Reader: bufio.NewReader(conn)},
	}
}

// frameReader is the connection's buffered reader; prefix counts the bytes
// taken through ReadByte, which is how binary.ReadUvarint reads a frame's
// length prefix.
type frameReader struct {
	*bufio.Reader
	prefix int
}

func (r *frameReader) ReadByte() (byte, error) {
	r.prefix++
	return r.Reader.ReadByte()
}

func (t *binTransport) Send(m *Message) error {
	bp := getFrameBuf()
	buf, start, mid, err := encodeFrameAround((*bp)[:0], m)
	if err != nil {
		putFrameBuf(bp, *bp)
		return fmt.Errorf("remote: send: %w", err)
	}
	t.sendMu.Lock()
	// A migration's batch goes out from the buffer it was written into.
	var werr error
	for _, part := range [][]byte{buf[start:mid], m.Batch, buf[mid:]} {
		if _, werr = t.w.Write(part); werr != nil {
			break
		}
	}
	if werr == nil {
		werr = t.w.Flush()
	}
	t.sendMu.Unlock()
	putFrameBuf(bp, buf)
	if werr != nil {
		return fmt.Errorf("remote: send: %w", werr)
	}
	return nil
}

// recvStep is the least Recv grows its buffer by, and so the most a peer
// can make it allocate ahead of the bytes it has actually sent.
const recvStep = 1 << 20

// longAgo is the read deadline that kicks a waiting Recv.
var longAgo = time.Unix(1, 0)

// InterruptRecv implements RecvInterrupter.
func (t *binTransport) InterruptRecv() bool {
	t.recvMu.Lock()
	t.pending = true
	if t.waiting {
		_ = t.conn.SetReadDeadline(longAgo) // fails only on a closed conn, whose read is failing anyway
	}
	t.recvMu.Unlock()
	return true
}

// awaitFrame is the interruptible part of Recv: it blocks until the next
// frame's first byte is buffered. A deadline is only ever set while waiting
// here and is cleared before the frame is read — kicking a read part-way
// through a frame would leave the stream between two frames' bytes.
func (t *binTransport) awaitFrame() error {
	t.recvMu.Lock()
	interrupted := t.pending
	t.pending, t.waiting = false, !interrupted
	t.recvMu.Unlock()
	if interrupted {
		return ErrRecvInterrupted
	}
	_, err := t.r.Peek(1)
	t.recvMu.Lock()
	t.waiting = false
	if t.pending {
		_ = t.conn.SetReadDeadline(time.Time{})
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.pending, err = false, ErrRecvInterrupted
		} // else the byte beat the kick, and pending stays for the next wait
	}
	t.recvMu.Unlock()
	return err
}

func (t *binTransport) Recv() (*Message, error) {
	if err := t.awaitFrame(); err == ErrRecvInterrupted {
		return nil, err
	} else if err != nil {
		return nil, fmt.Errorf("remote: recv: %w", err)
	}
	t.r.prefix = 0
	n, err := binary.ReadUvarint(&t.r)
	if err != nil {
		return nil, fmt.Errorf("remote: recv: %w", err)
	}
	if n > maxFrame {
		return nil, fmt.Errorf("remote: recv: frame of %d bytes exceeds limit", n)
	}
	// A frame that fits the retained buffer is one ReadFull into it. A
	// larger one fills what capacity there is and then grows by doubling
	// (recvStep at least, the frame's length at most), so the length
	// prefix alone — a claim, from a peer that may not be admitted yet —
	// never sizes an allocation: a stalled sender costs what it sent.
	size, buf := int(n), t.readBuf[:0]
	for len(buf) < size {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(size, max(2*len(buf), recvStep))), buf...)
		}
		got := len(buf)
		buf = buf[:min(size, cap(buf))]
		if _, err := io.ReadFull(t.r.Reader, buf[got:]); err != nil {
			return nil, fmt.Errorf("remote: recv: %w", err)
		}
	}
	t.readBuf = buf
	m, err := decodeMessage(buf)
	if err != nil {
		return nil, fmt.Errorf("remote: recv: %w", err)
	}
	m.Wire = int64(t.r.prefix + size)
	return m, nil
}

func (t *binTransport) Close() error {
	t.closeMu.Lock()
	defer t.closeMu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	return t.conn.Close()
}
