package remote

import (
	"context"
	"errors"
	"testing"

	"aide/internal/vm"
)

// offloadDoc creates one Doc, roots it, and offloads the Doc class.
func offloadDoc(t *testing.T, client *vm.VM, pc *Peer) vm.ObjectID {
	t.Helper()
	th := client.NewThread()
	doc, err := th.New("Doc", 2048)
	if err != nil {
		t.Fatalf("new Doc: %v", err)
	}
	client.SetRoot("doc", doc)
	if _, _, err := pc.Offload([]string{"Doc"}); err != nil {
		t.Fatalf("offload: %v", err)
	}
	return doc
}

// TestPipelineOneRoundTrip: a three-call chain — promise receiver and
// promise argument — ships as one MsgInvokeBatch frame, costs one wire
// request, and leaves the surrogate state as if the calls ran one by one.
func TestPipelineOneRoundTrip(t *testing.T) {
	client, _, pc, _ := newPlatform(t)
	doc := offloadDoc(t, client, pc)
	before := pc.Stats()

	p := client.NewPipeline()
	a := p.Invoke(doc, "me")
	b := p.Invoke(a, "append", vm.Int(5)) // promise receiver
	c := p.Invoke(a, "append", b)         // promise receiver + promise argument
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res[0].Kind != vm.KindRef || res[0].Ref != doc {
		t.Fatalf("res[0] = %v, want the doc stub (imports must re-map the returned ref)", res[0])
	}
	if res[1].I != 5 || res[2].I != 10 {
		t.Fatalf("res = [%v %v %v], want appends of 5 then 10", res[0], res[1], res[2])
	}
	if cv, cerr := c.Value(); cerr != nil || cv.I != 10 {
		t.Fatalf("promise c = %v err=%v, want 10", cv, cerr)
	}

	st := pc.Stats()
	if frames := st.PipelineFrames - before.PipelineFrames; frames != 1 {
		t.Fatalf("PipelineFrames = %d, want 1", frames)
	}
	if calls := st.PipelineCalls - before.PipelineCalls; calls != 3 {
		t.Fatalf("PipelineCalls = %d, want 3", calls)
	}
	if reqs := st.RequestsSent - before.RequestsSent; reqs != 1 {
		t.Fatalf("RequestsSent = %d for a 3-call chain, want 1 (that is the whole point)", reqs)
	}

	th := client.NewThread()
	if v, err := th.GetField(doc, "len"); err != nil || v.I != 10 {
		t.Fatalf("len after pipeline = %v err=%v, want 10", v, err)
	}
}

// TestPipelineFrameErrorFailsDependentsOnce: when call k of a frame
// fails, the successful prefix resolves, promises k..N yield the same
// *PipelineError, and the calls after k never execute on the surrogate.
func TestPipelineFrameErrorFailsDependentsOnce(t *testing.T) {
	client, _, pc, _ := newPlatform(t)
	doc := offloadDoc(t, client, pc)
	before := pc.Stats()

	p := client.NewPipeline()
	a := p.Invoke(doc, "me")
	bad := p.Invoke(a, "nosuch")
	tail := p.Invoke(a, "append", vm.Int(3))
	res, err := p.Run(context.Background())
	var perr *vm.PipelineError
	if !errors.As(err, &perr) || perr.Index != 1 {
		t.Fatalf("run err = %v, want *PipelineError at index 1", err)
	}
	if res[0].Kind != vm.KindRef || res[0].Ref != doc {
		t.Fatalf("prefix result = %v, want the doc ref", res[0])
	}
	if _, aerr := a.Value(); aerr != nil {
		t.Fatalf("prefix promise errored: %v", aerr)
	}
	_, berr := bad.Value()
	_, terr := tail.Value()
	if berr == nil || berr != terr {
		t.Fatalf("dependent promises must share one error, got %v vs %v", berr, terr)
	}
	if st := pc.Stats(); st.PipelineFrames-before.PipelineFrames != 1 {
		t.Fatalf("failing chain used %d frames, want 1", st.PipelineFrames-before.PipelineFrames)
	}

	th := client.NewThread()
	if v, gerr := th.GetField(doc, "len"); gerr != nil || v.I != 0 {
		t.Fatalf("len = %v err=%v: the call after the failure must not have executed", v, gerr)
	}
}
