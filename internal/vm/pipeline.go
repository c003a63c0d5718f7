package vm

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aide/internal/trace"
)

// Promise pipelining (paper §3.2's interaction-latency concern): a chain
// of N dependent remote invocations normally costs N round trips, because
// each call needs the previous result as its receiver or argument. A
// Pipeline ships the whole chain as one MsgInvokeBatch frame; the serving
// VM resolves the intra-frame references in order, so the chain costs one
// round trip. The wire structs below (PipelineCall, PromiseArg) live here
// next to the VM's other wire types; their binary codec lives with the
// message codec in internal/remote (the per-call receiver discriminator
// is a remote message kind).

// PipelineCall is one call of a pipelined multi-invoke frame.
type PipelineCall struct {
	// Recv selects the receiver: an index of an earlier call in the same
	// frame whose result is the receiver (promise form), or negative for
	// a concrete receiver named by Obj.
	Recv int32

	// Obj is the receiver in the serving VM's namespace (Recv < 0).
	Obj ObjectID

	Method string

	// Args are the call arguments; positions named by ArgPromises carry a
	// KindNil placeholder on the wire.
	Args []WireValue

	// ArgPromises substitutes results of earlier calls into Args.
	ArgPromises []PromiseArg
}

// PromiseArg names one argument position filled from an earlier call's
// result.
type PromiseArg struct {
	Pos  int32 // index into Args
	Call int32 // index of the earlier call in the same frame
}

// PipelineOutcome is the result of one pipelined frame.
type PipelineOutcome struct {
	// Rets holds the results of the calls that executed, in order. On a
	// frame error it covers the successful prefix only.
	Rets []WireValue

	// ErrIndex is the index of the failing call, or -1 when the whole
	// frame succeeded.
	ErrIndex int

	// ErrMsg describes the failing call's error (ErrIndex >= 0).
	ErrMsg string

	// Elapsed is the simulated execution time the serving VM spent on the
	// frame, charged to the requester like a single invocation's.
	Elapsed time.Duration
}

// PipelinePeer is the optional Peer extension for pipelined invocation.
// A peer that does not implement it makes the pipeline fall back to
// sequential calls.
type PipelinePeer interface {
	InvokePipeline(ctx context.Context, calls []PipelineCall) (PipelineOutcome, error)
}

// PipelineError is the error every promise at or after the failing call
// observes when a pipelined frame fails part-way: the first error
// propagates to all dependent promises, exactly once — the failing call
// and its dependents are not re-executed.
type PipelineError struct {
	// Index is the pipeline position of the call that failed.
	Index int
	Err   error
}

// Error implements error.
func (e *PipelineError) Error() string {
	return fmt.Sprintf("vm: pipeline call %d: %v", e.Index, e.Err)
}

// Unwrap exposes the failing call's error for errors.Is/As.
func (e *PipelineError) Unwrap() error { return e.Err }

// Promise is the not-yet-resolved result of a pipelined call. It may be
// the receiver or an argument of a later call in the same pipeline, and
// resolves when Run returns.
type Promise struct {
	p   *Pipeline
	idx int
}

// Value returns the promise's resolved result. Before Run it fails; after
// a failed frame every promise at or after the failing call returns the
// same *PipelineError.
func (pr *Promise) Value() (Value, error) {
	p := pr.p
	if !p.ran {
		return Nil(), errors.New("vm: pipeline has not run")
	}
	if p.buildErr != nil {
		return Nil(), p.buildErr
	}
	if err := p.errs[pr.idx]; err != nil {
		return Nil(), err
	}
	return p.results[pr.idx], nil
}

// pipeStep is one recorded call of a pipeline under construction.
type pipeStep struct {
	recv     ObjectID
	recvProm int // earlier-call index, or -1 for the concrete receiver
	method   string
	args     []Value
	argProms map[int]int // argument position -> earlier-call index
}

// Pipeline builds a chain of dependent invocations and runs it in one
// round trip when every receiver lives on the same pipelined peer:
//
//	p := v.NewPipeline()
//	a := p.Invoke(obj, "f")
//	b := p.Invoke(a, "g", a)
//	res, err := p.Run(ctx)
//
// When the chain cannot be batched — mixed placement, a local receiver,
// a peer that is not a PipelinePeer, or a peer lost mid-frame with
// failover re-homing its objects — Run degrades to plain sequential
// Thread.Invoke calls, preserving the exact pre-pipeline semantics.
// A Pipeline is single-use and not safe for concurrent use.
type Pipeline struct {
	vm       *VM
	steps    []pipeStep
	buildErr error
	ran      bool
	results  []Value
	errs     []error

	// promChunk and argChunk are block allocators for the build phase:
	// deep chains would otherwise allocate one Promise and one argument
	// slice per Invoke. Carved subslices are full-capacity and never
	// overlap, so handed-out promises and argument slices stay stable.
	promChunk []Promise
	argChunk  []Value
}

// NewPipeline returns an empty pipeline bound to the VM.
func (v *VM) NewPipeline() *Pipeline { return &Pipeline{vm: v} }

func (p *Pipeline) setBuildErr(err error) {
	if p.buildErr == nil {
		p.buildErr = err
	}
}

func (p *Pipeline) newPromise() *Promise {
	if len(p.promChunk) == 0 {
		p.promChunk = make([]Promise, 16)
	}
	pr := &p.promChunk[0]
	p.promChunk = p.promChunk[1:]
	pr.p, pr.idx = p, len(p.steps)
	return pr
}

func (p *Pipeline) allocArgs(n int) []Value {
	if n == 0 {
		return nil
	}
	if n > len(p.argChunk) {
		size := n
		if size < 32 {
			size = 32
		}
		p.argChunk = make([]Value, size)
	}
	out := p.argChunk[:n:n]
	p.argChunk = p.argChunk[n:]
	return out
}

// Invoke appends a call to the pipeline and returns its promise. The
// receiver is an ObjectID, a KindRef Value, or a *Promise from an earlier
// Invoke on this pipeline; each argument is a Value, an ObjectID (boxed
// as a reference), or a *Promise. A malformed receiver or argument poisons
// the pipeline: Run reports the first such error without executing
// anything.
func (p *Pipeline) Invoke(recv any, method string, args ...any) *Promise {
	pr := p.newPromise()
	step := pipeStep{recvProm: -1, method: method}
	if method == "" {
		p.setBuildErr(fmt.Errorf("vm: pipeline call %d: empty method name", pr.idx))
	}
	switch r := recv.(type) {
	case ObjectID:
		step.recv = r
	case *Promise:
		if r == nil || r.p != p {
			p.setBuildErr(fmt.Errorf("vm: pipeline call %d: receiver promise from another pipeline", pr.idx))
		} else {
			step.recvProm = r.idx
		}
	case Value:
		if r.Kind != KindRef {
			p.setBuildErr(fmt.Errorf("vm: pipeline call %d: receiver value is %s, not a reference", pr.idx, r))
		} else {
			step.recv = r.Ref
		}
	default:
		p.setBuildErr(fmt.Errorf("vm: pipeline call %d: receiver must be an ObjectID, reference Value, or *Promise", pr.idx))
	}
	step.args = p.allocArgs(len(args))
	for i, a := range args {
		switch v := a.(type) {
		case Value:
			step.args[i] = v
		case ObjectID:
			step.args[i] = RefOf(v)
		case *Promise:
			if v == nil || v.p != p {
				p.setBuildErr(fmt.Errorf("vm: pipeline call %d: argument %d promise from another pipeline", pr.idx, i))
				continue
			}
			if step.argProms == nil {
				step.argProms = make(map[int]int)
			}
			step.argProms[i] = v.idx
			step.args[i] = Nil() // wire placeholder
		default:
			p.setBuildErr(fmt.Errorf("vm: pipeline call %d: argument %d must be a Value, ObjectID, or *Promise", pr.idx, i))
		}
	}
	p.steps = append(p.steps, step)
	return pr
}

// Len returns the number of calls recorded so far.
func (p *Pipeline) Len() int { return len(p.steps) }

// Run executes the pipeline and returns the per-call results in order.
// On a mid-frame failure it returns the successful prefix plus a
// *PipelineError identifying the failing call; every promise at or after
// that call yields the same error. A pipeline runs at most once.
func (p *Pipeline) Run(ctx context.Context) ([]Value, error) {
	if p.ran {
		return nil, errors.New("vm: pipeline already run")
	}
	p.ran = true
	if p.buildErr != nil {
		return nil, p.buildErr
	}
	if len(p.steps) == 0 {
		return nil, nil
	}
	p.results = make([]Value, len(p.steps))
	p.errs = make([]error, len(p.steps))

	if peerIdx, pp, callees, ok := p.batchTarget(); ok {
		done, res, err := p.runBatched(ctx, peerIdx, pp, callees)
		if done {
			return res, err
		}
		// Failed-over peer: degrade to sequential calls.
	}
	return p.runSequential(ctx)
}

// batchTarget decides whether the pipeline can ship as one frame: every
// concrete receiver must be a stub hosted by the same peer, and that peer
// must support pipelined invocation. It also captures each concrete
// receiver's class for monitoring.
func (p *Pipeline) batchTarget() (int, PipelinePeer, []*Class, bool) {
	v := p.vm
	v.mu.Lock()
	defer v.mu.Unlock()
	peerIdx := -1
	callees := make([]*Class, len(p.steps))
	for i := range p.steps {
		step := &p.steps[i]
		if step.recvProm >= 0 {
			continue
		}
		o, ok := v.objects[step.recv]
		if !ok || !o.Remote {
			return 0, nil, nil, false
		}
		if peerIdx < 0 {
			peerIdx = o.PeerIdx
		} else if o.PeerIdx != peerIdx {
			return 0, nil, nil, false
		}
		callees[i] = o.Class
	}
	if peerIdx < 0 {
		return 0, nil, nil, false
	}
	pp, ok := v.peerAt(peerIdx).(PipelinePeer)
	if !ok {
		return 0, nil, nil, false
	}
	return peerIdx, pp, callees, true
}

// runBatched ships the pipeline as one MsgInvokeBatch frame. done=false
// means the frame could not be used (the peer vanished and failover
// re-homed its objects) and the caller should run sequentially.
func (p *Pipeline) runBatched(ctx context.Context, peerIdx int, pp PipelinePeer, callees []*Class) (done bool, res []Value, err error) {
	v := p.vm
	calls := make([]PipelineCall, len(p.steps))
	// exports remembers, per call, the local objects pinned by encoding
	// its arguments, so pins for calls the serving VM never decoded can
	// be dropped again on failure or fallback. Allocated lazily: most
	// frames carry no reference arguments.
	var exports [][]ObjectID
	// One argument arena for the whole frame; each call's Args is a
	// full-capacity subslice, so the frame costs one allocation instead
	// of one per call.
	total := 0
	for i := range p.steps {
		total += len(p.steps[i].args)
	}
	arena := make([]WireValue, total)
	for i, off := 0, 0; i < len(p.steps); i++ {
		step := &p.steps[i]
		c := &calls[i]
		c.Recv, c.Method = int32(step.recvProm), step.method
		if step.recvProm < 0 {
			c.Recv = -1
			v.mu.Lock()
			o, ok := v.objects[step.recv]
			if !ok || !o.Remote || o.PeerIdx != peerIdx {
				v.mu.Unlock()
				p.releaseExports(exports, 0)
				return false, nil, nil
			}
			c.Obj = o.PeerID
			v.mu.Unlock()
		}
		n := len(step.args)
		c.Args = arena[off : off+n : off+n]
		off += n
		for ai := range step.args {
			if ci, ok := step.argProms[ai]; ok {
				c.ArgPromises = append(c.ArgPromises, PromiseArg{Pos: int32(ai), Call: int32(ci)})
				continue
			}
			av := &step.args[ai]
			if eerr := v.EncodeOutgoingInto(peerIdx, av, &c.Args[ai]); eerr != nil {
				p.releaseExports(exports, 0)
				return true, nil, p.failAll(fmt.Errorf("vm: pipeline call %d: %w", i, eerr))
			}
			if c.Args[ai].Kind == KindRef && !c.Args[ai].Ref.ReceiverLocal {
				if exports == nil {
					exports = make([][]ObjectID, len(p.steps))
				}
				exports[i] = append(exports[i], av.Ref)
			}
		}
	}

	out, callErr := pp.InvokePipeline(ctx, calls)
	if callErr != nil {
		used, _ := pp.(Peer) // pp came out of the peer table, so it is one
		if v.failoverIfGone(peerIdx, used, callErr) {
			// The peer vanished mid-frame and its objects were re-homed
			// locally; re-execute sequentially on the reclaimed copies.
			// (Failover already dropped a sole peer's pins wholesale.)
			return false, nil, nil
		}
		return true, nil, p.failAll(callErr)
	}

	limit := len(p.steps)
	if out.ErrIndex >= 0 && out.ErrIndex < limit {
		limit = out.ErrIndex
	}
	if len(out.Rets) < limit {
		// The serving VM answered with fewer results than executed calls:
		// a protocol violation, never expected.
		return true, nil, p.failAll(fmt.Errorf("vm: pipeline: peer returned %d results for %d calls", len(out.Rets), limit))
	}
	if derr := v.DecodeIncomingSlice(peerIdx, out.Rets[:limit], p.results[:limit]); derr != nil {
		return true, nil, p.failAll(fmt.Errorf("vm: pipeline result: %w", derr))
	}

	v.mu.Lock()
	v.clock += out.Elapsed
	caller := v.currentClassLocked()
	for i := 0; i < limit; i++ {
		v.tm.invokeRemote.Inc()
		if p.results[i].Kind == KindRef {
			v.addTempLocked(p.results[i].Ref)
		}
		// Promise-receiver calls have no client-side class to attribute
		// the invocation to; monitoring sees concrete-receiver calls only.
		if callees[i] != nil {
			v.emitLocked(trace.KindInvoke, caller, callees[i], p.steps[i].recv,
				WireSizeAll(p.steps[i].args)+p.results[i].WireSize(), 0, false, false)
		}
	}
	v.mu.Unlock()

	if out.ErrIndex >= 0 {
		// First error propagates to the failing call and everything after
		// it, exactly once; calls past the failure were never decoded by
		// the peer, so their argument pins are dropped again.
		ferr := &PipelineError{Index: out.ErrIndex, Err: errors.New(out.ErrMsg)}
		for i := out.ErrIndex; i < len(p.steps); i++ {
			p.errs[i] = ferr
		}
		p.releaseExports(exports, out.ErrIndex+1)
		return true, p.results, ferr
	}
	return true, p.results, nil
}

// failAll poisons every promise with the same *PipelineError — the path
// for whole-frame failures with no attributable call (transport death
// without failover, codec failure, protocol violation): nothing in the
// frame is known to have produced a usable result, so every promise
// reports the failure, starting at call 0.
func (p *Pipeline) failAll(err error) error {
	ferr := &PipelineError{Index: 0, Err: err}
	for i := range p.errs {
		p.errs[i] = ferr
	}
	return ferr
}

// releaseExports drops the argument export pins recorded for calls with
// index >= from (calls the serving VM never decoded).
func (p *Pipeline) releaseExports(exports [][]ObjectID, from int) {
	for i := from; i < len(exports); i++ {
		for _, id := range exports[i] {
			p.vm.ReleaseExport(id)
		}
	}
}

// runSequential executes the pipeline as plain in-order invocations —
// the fallback for unbatchable chains, peers that are not PipelinePeers,
// and disconnect failover. Each call is an ordinary Thread.Invoke:
// observably sequential, one wire message per remote call, monitored like
// any other invocation.
func (p *Pipeline) runSequential(ctx context.Context) ([]Value, error) {
	t := p.vm.NewThread()
	for i := range p.steps {
		step := &p.steps[i]
		var err error
		recv := step.recv
		if step.recvProm >= 0 {
			rv := p.results[step.recvProm]
			if rv.Kind != KindRef || rv.Ref == InvalidObject {
				err = fmt.Errorf("vm: pipeline call %d: promise %d resolved to %s, not an object reference", i, step.recvProm, rv)
			} else {
				recv = rv.Ref
			}
		}
		if err == nil {
			err = ctx.Err()
		}
		var ret Value
		if err == nil {
			args := make([]Value, len(step.args))
			copy(args, step.args)
			for pos, ci := range step.argProms {
				args[pos] = p.results[ci]
			}
			ret, err = t.Invoke(recv, step.method, args...)
		}
		if err != nil {
			ferr := &PipelineError{Index: i, Err: err}
			for j := i; j < len(p.steps); j++ {
				p.errs[j] = ferr
			}
			return p.results, ferr
		}
		p.results[i] = ret
	}
	return p.results, nil
}
