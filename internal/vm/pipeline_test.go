package vm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakePipePeer is a peer without the optional PipelinePeer extension:
// plain invocations succeed and are logged in order. It returns values in
// the client's namespace, the way remote.Peer does after decoding.
type fakePipePeer struct {
	self ObjectID // the client-side stub, for ref-returning replies

	mu      sync.Mutex
	invokes []string
}

func (p *fakePipePeer) InvokeRemote(id ObjectID, method string, args []Value) (Value, time.Duration, error) {
	p.mu.Lock()
	p.invokes = append(p.invokes, method)
	p.mu.Unlock()
	switch method {
	case "getVal":
		return RefOf(p.self), 0, nil
	case "setVal":
		return Int(args[0].I + 1), 0, nil
	}
	return Nil(), 0, errors.New("fake: no such method " + method)
}

func (p *fakePipePeer) GetFieldRemote(ObjectID, string) (Value, error) {
	return Nil(), errors.New("fake: unused")
}
func (p *fakePipePeer) SetFieldRemote(ObjectID, string, Value) error { return errors.New("fake") }
func (p *fakePipePeer) GetStaticRemote(string, string) (Value, error) {
	return Nil(), errors.New("fake: unused")
}
func (p *fakePipePeer) SetStaticRemote(string, string, Value) error { return errors.New("fake") }
func (p *fakePipePeer) InvokeNativeRemote(string, string, ObjectID, bool, []Value) (Value, time.Duration, error) {
	return Nil(), 0, errors.New("fake: unused")
}
func (p *fakePipePeer) Release(...ObjectID) {}

var _ Peer = (*fakePipePeer)(nil)

// TestPipelineRunsSequentialOnPlainPeer: a chain whose remote receiver's
// peer does not implement PipelinePeer runs as plain sequential
// invocations — same results, one InvokeRemote per call, in pipeline
// order.
func TestPipelineRunsSequentialOnPlainPeer(t *testing.T) {
	v := New(migRegistry(t), Config{Role: RoleClient, HeapCapacity: 1 << 20, CPUSpeed: 1})
	fp := &fakePipePeer{}
	idx := v.AttachPeer(fp)
	stub, err := v.StubFor(idx, ObjectID(7), "Node")
	if err != nil {
		t.Fatal(err)
	}
	fp.self = stub
	v.SetRoot("stub", stub)

	p := v.NewPipeline()
	a := p.Invoke(stub, "getVal")
	b := p.Invoke(a, "setVal", Int(4))
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res[0].Kind != KindRef || res[0].Ref != stub {
		t.Fatalf("res[0] = %v, want ref to the stub", res[0])
	}
	if res[1].I != 5 {
		t.Fatalf("res[1] = %v, want 5", res[1])
	}
	if bv, berr := b.Value(); berr != nil || bv.I != 5 {
		t.Fatalf("promise b = %v err=%v, want 5", bv, berr)
	}
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if _, ok := any(fp).(PipelinePeer); ok {
		t.Fatal("the fake implements PipelinePeer; the sequential path over a remote receiver is not what ran")
	}
	if len(fp.invokes) != 2 || fp.invokes[0] != "getVal" || fp.invokes[1] != "setVal" {
		t.Fatalf("invokes = %v, want sequential [getVal setVal]", fp.invokes)
	}
}

// TestPipelineLocalChainRunsSequential: a chain whose receivers are local
// is unbatchable and runs as ordinary in-order invocations, including
// promise-argument substitution.
func TestPipelineLocalChainRunsSequential(t *testing.T) {
	v := New(migRegistry(t), Config{Role: RoleClient, HeapCapacity: 1 << 20, CPUSpeed: 1})
	th := v.NewThread()
	n, err := th.New("Node", 512)
	if err != nil {
		t.Fatal(err)
	}
	v.SetRoot("n", n)

	p := v.NewPipeline()
	p.Invoke(n, "setVal", Int(9))
	b := p.Invoke(n, "getVal")
	p.Invoke(n, "setVal", b) // promise as argument
	d := p.Invoke(n, "getVal")
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res[1].I != 9 || res[3].I != 9 {
		t.Fatalf("res = %v, want getVal results of 9", res)
	}
	if dv, derr := d.Value(); derr != nil || dv.I != 9 {
		t.Fatalf("promise d = %v err=%v, want 9", dv, derr)
	}
}

// TestPipelineSequentialErrorPoisonsDependents: when a sequential run
// fails at call k, promises k..N all observe the same *PipelineError and
// the calls after k never execute.
func TestPipelineSequentialErrorPoisonsDependents(t *testing.T) {
	v := New(migRegistry(t), Config{Role: RoleClient, HeapCapacity: 1 << 20, CPUSpeed: 1})
	th := v.NewThread()
	n, err := th.New("Node", 512)
	if err != nil {
		t.Fatal(err)
	}
	v.SetRoot("n", n)

	p := v.NewPipeline()
	a := p.Invoke(n, "setVal", Int(3))
	bad := p.Invoke(n, "nosuch")
	tail := p.Invoke(n, "setVal", Int(99))
	if _, err := p.Run(context.Background()); err == nil {
		t.Fatal("run must surface the failing call")
	}
	if _, aerr := a.Value(); aerr != nil {
		t.Fatalf("call before the failure errored: %v", aerr)
	}
	_, berr := bad.Value()
	_, terr := tail.Value()
	var pe *PipelineError
	if !errors.As(berr, &pe) || pe.Index != 1 {
		t.Fatalf("failing promise error = %v, want *PipelineError at index 1", berr)
	}
	if berr != terr {
		t.Fatalf("dependent promise got a different error: %v vs %v", berr, terr)
	}
	if got, err := th.GetField(n, "val"); err != nil || got.I != 3 {
		t.Fatalf("val = %v err=%v: the call after the failure must not execute", got, err)
	}
}

// TestPipelineBuildErrorsAndSingleUse: malformed receivers poison the
// pipeline before anything executes, and a pipeline runs at most once.
func TestPipelineBuildErrorsAndSingleUse(t *testing.T) {
	v := New(migRegistry(t), Config{Role: RoleClient, HeapCapacity: 1 << 20, CPUSpeed: 1})

	other := v.NewPipeline()
	foreign := other.Invoke(ObjectID(1), "getVal")

	p := v.NewPipeline()
	p.Invoke(foreign, "getVal") // promise from another pipeline
	if _, err := p.Run(context.Background()); err == nil {
		t.Fatal("foreign promise must poison the pipeline")
	}

	empty := v.NewPipeline()
	if res, err := empty.Run(context.Background()); err != nil || res != nil {
		t.Fatalf("empty run = %v, %v; want nil, nil", res, err)
	}
	if _, err := empty.Run(context.Background()); err == nil {
		t.Fatal("a pipeline must run at most once")
	}

	q := v.NewPipeline()
	pr := q.Invoke(Int(3), "getVal") // non-reference receiver
	if _, err := q.Run(context.Background()); err == nil {
		t.Fatal("scalar receiver must poison the pipeline")
	}
	if _, err := pr.Value(); err == nil {
		t.Fatal("promise on a poisoned pipeline must error")
	}
}
