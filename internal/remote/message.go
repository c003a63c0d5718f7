// Package remote implements AIDE's remote invocation module (paper §3.2,
// §4): it converts accesses to remote objects into transparent RPCs
// between two VMs, manages external object references, migrates offloaded
// objects, and services the peer's requests with a pool of worker threads.
package remote

import (
	"errors"
	"fmt"

	"aide/internal/vm"
)

// MsgKind discriminates wire messages.
type MsgKind uint8

// Message kinds.
const (
	MsgInvoke MsgKind = iota + 1
	MsgNativeInvoke
	MsgGetField
	MsgSetField
	MsgGetStatic
	MsgSetStatic
	MsgMigrate
	MsgRelease
	MsgPing
	MsgRecall
	MsgInfo
	// MsgReleaseBatch coalesces many stub-death decrefs into one one-way
	// message; IDs carries the released object IDs, duplicates included
	// (one entry per decref).
	MsgReleaseBatch
	// MsgPong answers a MsgPing health probe. A distinct reply kind lets a
	// receiver tell a probe answer from an echoed request without
	// consulting the pending-call table.
	MsgPong
	// MsgInvokeBatch carries a pipelined multi-invoke frame: Calls execute
	// strictly in order on the serving VM; a call may name an earlier
	// call's result as its receiver or argument (promise pipelining), so a
	// chain of N dependent invocations costs one round trip.
	MsgInvokeBatch
	// MsgPromiseRef is the per-call receiver discriminator inside a
	// MsgInvokeBatch frame: it introduces the promise form (an earlier
	// call's index) where MsgInvoke introduces a concrete object ID. It
	// never appears as a top-level frame kind.
	MsgPromiseRef
	_ // kind 16 is retired, never reused: serve answers it as an unknown request kind
	// MsgAttach opens a session: the serving side runs admission control
	// and either admits the sender (reply carries the same occupancy
	// payload as MsgInfo plus Sessions) or rejects it with a typed error
	// code (ErrCode).
	MsgAttach
	// MsgSnapshot moves one whole VM snapshot image in Blob, bounded like
	// any frame by maxFrame. Method selects what the receiver does with it
	// ("restore" replaces its session VM's heap, "handoff" announces a
	// drain destination named by Class, "drain" orders a surrogate to
	// drain toward Class, "pull" asks for the receiver's own snapshot —
	// the request carries no Blob, the reply's Blob is an image captured
	// for that request).
	MsgSnapshot
	_ // kind 19 is retired, never reused: serve answers it as an unknown request kind
)

// String returns the kind's name.
func (k MsgKind) String() string {
	switch k {
	case MsgInvoke:
		return "invoke"
	case MsgNativeInvoke:
		return "native-invoke"
	case MsgGetField:
		return "get-field"
	case MsgSetField:
		return "set-field"
	case MsgGetStatic:
		return "get-static"
	case MsgSetStatic:
		return "set-static"
	case MsgMigrate:
		return "migrate"
	case MsgRelease:
		return "release"
	case MsgPing:
		return "ping"
	case MsgRecall:
		return "recall"
	case MsgInfo:
		return "info"
	case MsgReleaseBatch:
		return "release-batch"
	case MsgPong:
		return "pong"
	case MsgInvokeBatch:
		return "invoke-batch"
	case MsgPromiseRef:
		return "promise-ref"
	case MsgAttach:
		return "attach"
	case MsgSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("MsgKind(%d)", uint8(k))
	}
}

// Message is the single wire envelope. A fat struct keeps the codec one
// flat, tag-prefixed record; unused fields cost nothing on the wire.
type Message struct {
	ID    uint64 // request correlation; replies echo it
	Reply bool
	Kind  MsgKind
	// SelfIsSenderLocal marks native invocations whose receiver object is
	// in the *sender's* namespace (diagnostic; see Peer.handleNative). It
	// shares a word with Reply and Kind: a round trip allocates four
	// Messages, and this keeps them in the allocator's 448-byte class.
	SelfIsSenderLocal bool
	Err               string // non-empty on failed replies

	Obj    vm.ObjectID // target object, in the receiver's namespace
	Class  string
	Method string
	Field  string

	Args []vm.WireValue
	Ret  vm.WireValue

	// ElapsedNanos is the simulated execution time the serving VM spent,
	// charged to the requester (paper §4's serial execution accounting).
	ElapsedNanos int64

	// Batch carries a migration batch in its wire form (vm.Migration's
	// Batch, adopted by vm.AdoptMigration); IDs carries assigned IDs.
	Batch []byte
	IDs   []vm.ObjectID

	// Classes names the classes a recall requests; Objects and MovedBytes
	// report what a recall moved.
	Classes    []string
	Objects    int64
	MovedBytes int64

	// FreeBytes, CapacityBytes, and CPUSpeed describe the serving VM in
	// info replies (surrogate selection, paper §2).
	FreeBytes     int64
	CapacityBytes int64
	CPUSpeed      float64

	// Calls carries a pipelined multi-invoke frame (MsgInvokeBatch); Rets
	// carries its reply's per-call results, in call order — on a failed
	// frame, the successful prefix only.
	Calls []vm.PipelineCall
	Rets  []vm.WireValue

	// ErrIndex, on a failed MsgInvokeBatch reply (Err non-empty), is
	// 1 + the index of the call that failed; 0 means the failure was not
	// attributable to a single call (the offset keeps the zero value off
	// the wire under tag-presence encoding).
	ErrIndex int32

	// ErrCode, on a failed reply, classifies the failure machine-readably
	// (admission rejection, load shed, eviction); 0 means unclassified.
	// RemoteError carries it to the caller as an ErrorCode.
	ErrCode uint8

	// Sessions reports the serving surrogate's live admitted session count
	// in info and attach replies (fleet placement input).
	Sessions int64

	// Blob carries a whole snapshot image (MsgSnapshot).
	Blob []byte

	// Wire is the length in bytes of the frame that carried the message,
	// length prefix included. It is not encoded: whoever encodes or decodes
	// the frame stamps it (a Transport's Send on the caller's message, its
	// Recv on the one it returns; AppendFrame and DecodeFrame likewise), and
	// the peer's byte counters and link costing read it.
	Wire int64
}

// ErrorCode classifies a failed reply machine-readably. It rides the
// wire as Message.ErrCode and surfaces on RemoteError, whose Unwrap maps
// each code to a matching sentinel so errors.Is works across the link.
type ErrorCode uint8

// Error codes carried on failed replies.
const (
	// CodeNone marks an unclassified failure (the pre-session wire format).
	CodeNone ErrorCode = iota
	// CodeAdmission marks an attach or request rejected by admission
	// control: the surrogate is at its session or heap-quota cap.
	CodeAdmission
	// CodeShed marks work refused by load shedding: the surrogate's
	// health probe reports degraded and new sessions are turned away.
	CodeShed
	// CodeEvicted marks a session torn down by the surrogate to reclaim
	// capacity; late requests on the severed session carry it.
	CodeEvicted
	// CodeDrained marks a request refused because the surrogate is
	// draining: the session is being handed off to another surrogate, and
	// the refused call never executed (retrying it elsewhere is
	// exactly-once safe).
	CodeDrained
)

// String returns the code's name.
func (c ErrorCode) String() string {
	switch c {
	case CodeNone:
		return "none"
	case CodeAdmission:
		return "admission-rejected"
	case CodeShed:
		return "shed"
	case CodeEvicted:
		return "evicted"
	case CodeDrained:
		return "drained"
	default:
		return fmt.Sprintf("ErrorCode(%d)", uint8(c))
	}
}

// Typed session-control failures. A surrogate rejecting work puts the
// matching code on the wire; the requesting side's RemoteError unwraps to
// these, so clients match with errors.Is regardless of transport.
var (
	// ErrAdmissionRejected reports an attach refused by admission control.
	ErrAdmissionRejected = errors.New("remote: admission rejected")
	// ErrShed reports work refused because the surrogate is shedding load.
	ErrShed = errors.New("remote: load shed")
	// ErrEvicted reports a session the surrogate evicted to reclaim capacity.
	ErrEvicted = errors.New("remote: session evicted")
	// ErrDrained reports a request refused because the surrogate is
	// draining the session toward another surrogate. It wraps
	// vm.ErrSessionDrained so the VM's drain-redirect retry recognizes the
	// condition through the remote module's wrapping.
	ErrDrained error = fmt.Errorf("remote: surrogate draining: %w", vm.ErrSessionDrained)
)

// sentinel maps an ErrorCode to its errors.Is target.
func (c ErrorCode) sentinel() error {
	switch c {
	case CodeAdmission:
		return ErrAdmissionRejected
	case CodeShed:
		return ErrShed
	case CodeEvicted:
		return ErrEvicted
	case CodeDrained:
		return ErrDrained
	default:
		return nil
	}
}

// CodeOf extracts the ErrorCode riding err, or CodeNone. It recognizes
// both RemoteError values and the bare sentinels.
func CodeOf(err error) ErrorCode {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Code
	}
	switch {
	case errors.Is(err, ErrAdmissionRejected):
		return CodeAdmission
	case errors.Is(err, ErrShed):
		return CodeShed
	case errors.Is(err, ErrEvicted):
		return CodeEvicted
	case errors.Is(err, ErrDrained):
		return CodeDrained
	}
	return CodeNone
}

// RemoteError is an error returned by the peer VM while servicing a
// request.
type RemoteError struct {
	Kind MsgKind
	Msg  string
	Code ErrorCode // typed session-control classification; CodeNone if unclassified
}

// Error implements error.
func (e *RemoteError) Error() string {
	if e.Code != CodeNone {
		return fmt.Sprintf("remote: peer %s failed (%s): %s", e.Kind, e.Code, e.Msg)
	}
	return fmt.Sprintf("remote: peer %s failed: %s", e.Kind, e.Msg)
}

// Unwrap exposes the sentinel matching the error's code, so
// errors.Is(err, ErrAdmissionRejected) holds across the wire.
func (e *RemoteError) Unwrap() error {
	return e.Code.sentinel()
}

// ErrClosed is returned for operations on a closed peer connection.
var ErrClosed = errors.New("remote: connection closed")

// errRetired is the close cause of a connection whose session was handed
// off live: still ErrClosed, but also the drained redirect, because a
// call it fails never executed here (Call refuses before sending once the
// peer is closed, and the retired session's gate bounced every work
// request sent earlier) and must be retried at the new home.
var errRetired = fmt.Errorf("%w: session handed off: %w", ErrClosed, ErrDrained)

// ErrCallTimeout is returned when a call's deadline (Options.CallTimeout)
// expires before the reply arrives. The peer is marked degraded; enough
// consecutive timeouts (Options.DisconnectAfter) escalate to a full
// disconnect.
var ErrCallTimeout = errors.New("remote: call timed out")

// ErrDisconnected marks an involuntary connection loss — a transport
// failure or a timeout storm, as opposed to a deliberate Close. It wraps
// both ErrClosed (existing callers matching on "connection closed" keep
// working) and vm.ErrPeerGone (the VM layer recognizes the condition and
// fails calls over to local execution).
var ErrDisconnected error = fmt.Errorf("%w: connection lost: %w", ErrClosed, vm.ErrPeerGone)
