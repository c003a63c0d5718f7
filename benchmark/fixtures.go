package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"aide"
	"aide/internal/apps"
	"aide/internal/experiments"
	"aide/internal/remote"
	"aide/internal/vm"
)

// traceSet is the five recorded Table-1 traces behind a serial
// experiments.Suite, and how long recording them took.
type traceSet struct {
	suite   *experiments.Suite
	recordS float64
	events  int64
}

// sharedTraces lets the runs of one traced or quick process reuse a
// recording; timed set-ups always record afresh.
var (
	sharedMu     sync.Mutex
	sharedTraces *traceSet
)

// forgetTraces drops the shared recording. While it is held its 150 MB
// of live heap raise the collector's goal so far that the next workload
// in the process runs all but uncollected: live_apps made 158
// offload/recall cycles a second after a traced run against 116 before
// one. runAll forgets the recording between workloads, so that each
// starts from the heap a fresh process has.
func forgetTraces() {
	sharedMu.Lock()
	sharedTraces = nil
	sharedMu.Unlock()
}

// recordTraces runs the five applications to completion on monitored
// VMs, serially: apps.Record is what a researcher's first emulator run
// pays, and what setup_s of repartition and emu_replay mostly is.
func (rc *runCtx) recordTraces() (*traceSet, error) {
	if rc.oneEpoch {
		// Held across the recording: concurrent sharers wait for the
		// first one's traces instead of recording their own.
		sharedMu.Lock()
		defer sharedMu.Unlock()
		if sharedTraces != nil {
			return sharedTraces, nil
		}
	}
	id := rc.main.begin("apps.record")
	defer rc.main.end(id)
	s := experiments.NewSuite()
	s.Parallelism = 1
	t0 := time.Now()
	if err := s.Warm(); err != nil {
		return nil, fmt.Errorf("record traces: %w", err)
	}
	ts := &traceSet{suite: s, recordS: time.Since(t0).Seconds()}
	for _, spec := range apps.All() {
		tr, err := s.Trace(spec.Name)
		if err != nil {
			return nil, err
		}
		ts.events += int64(len(tr.Events))
	}
	if rc.oneEpoch {
		sharedTraces = ts
	}
	return ts, nil
}

// Echo service classes shared by the rpc workloads and the remote-layer
// probes: echo returns its blob argument, hop returns its receiver (the
// dependency promise pipelining collapses), the state field is what a
// remote data access reads, and Chunk is a data object whose blob field
// makes migration move real bytes.
func echoRegistry() (*vm.Registry, error) {
	reg := vm.NewRegistry()
	if _, err := reg.Register(vm.ClassSpec{
		Name:   "Echo",
		Fields: []string{"state"},
		Methods: []vm.MethodSpec{{
			Name: "echo",
			Body: func(_ *vm.Thread, _ vm.ObjectID, args []vm.Value) (vm.Value, error) {
				if len(args) != 1 {
					return vm.Nil(), fmt.Errorf("echo: got %d args, want 1", len(args))
				}
				return args[0], nil
			},
		}, {
			Name: "hop",
			Body: func(_ *vm.Thread, self vm.ObjectID, _ []vm.Value) (vm.Value, error) {
				return vm.RefOf(self), nil
			},
		}},
	}); err != nil {
		return nil, err
	}
	if _, err := reg.Register(vm.ClassSpec{Name: "Chunk", Fields: []string{"data"}}); err != nil {
		return nil, err
	}
	return reg, nil
}

// newSurrogate starts the paper's surrogate — 256 MiB, 3.5x the client's
// CPU — listening on a loopback port.
func newSurrogate(tk *track, reg *vm.Registry, opts ...aide.Option) (*aide.Surrogate, string, error) {
	id := tk.begin("surrogate.listen")
	defer tk.end(id)
	o := append([]aide.Option{aide.WithHeap(256 << 20), aide.WithCPUSpeed(3.5)}, opts...)
	s := aide.NewSurrogate(reg, o...)
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return s, addr, nil
}

// echoSession is a client VM whose remote.Peer is attached over loopback
// TCP to a serving side, with one Echo object offloaded there.
type echoSession struct {
	cvm  *vm.VM
	peer *remote.Peer
	th   *vm.Thread
	svc  vm.ObjectID

	sur    *aide.Surrogate // nil for a bare pair
	closer func() error
}

// dialPeer connects a fresh client VM to addr and runs the session
// handshake, so admission and the per-message gate are on the path.
func dialPeer(ctx context.Context, reg *vm.Registry, addr string, heap int64) (*vm.VM, *remote.Peer, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	cvm := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: heap})
	p := remote.NewPeer(cvm, remote.NewConnTransport(conn), remote.Options{Workers: 2})
	if _, err := p.Attach(ctx); err != nil {
		return nil, nil, fmt.Errorf("attach: %w", errors.Join(err, p.Close()))
	}
	return cvm, p, nil
}

// offloadEcho creates the Echo object with the given state and migrates
// it to the serving side, so that invokes and field reads cross the wire.
func (e *echoSession) offloadEcho(state []byte) error {
	e.th = e.cvm.NewThread()
	svc, err := e.th.New("Echo", 64)
	if err != nil {
		return err
	}
	if err := e.th.SetField(svc, "state", vm.Blob(state)); err != nil {
		return err
	}
	e.cvm.SetRoot("svc", svc)
	e.svc = svc
	if n, _, err := e.peer.Offload([]string{"Echo"}); err != nil || n != 1 {
		return fmt.Errorf("offload Echo moved %d objects: %v", n, err)
	}
	return nil
}

// newSurrogateSession is the rpc workloads' platform: a real
// aide.Surrogate serving a hand-built client peer.
func newSurrogateSession(ctx context.Context, tk *track, state []byte) (*echoSession, error) {
	reg, err := echoRegistry()
	if err != nil {
		return nil, err
	}
	sur, addr, err := newSurrogate(tk, reg)
	if err != nil {
		return nil, err
	}
	id := tk.begin("surrogate.attach")
	cvm, p, err := dialPeer(ctx, reg, addr, 64<<20)
	tk.end(id)
	if err != nil {
		_ = sur.Close()
		return nil, err
	}
	e := &echoSession{cvm: cvm, peer: p, sur: sur}
	e.closer = func() error {
		err := p.Close()
		if cerr := sur.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if err := e.offloadEcho(state); err != nil {
		_ = e.closer()
		return nil, err
	}
	return e, nil
}

// tcpPair returns both ends of one fresh loopback connection.
func tcpPair() (client, server net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		ch <- accepted{conn, err}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		_ = client.Close()
		return nil, nil, a.err
	}
	return client, a.conn, nil
}

// newBareSession is the same echo platform without aide.Surrogate: two
// remote.NewPeer ends over the given transports, no session gate.
func newBareSession(tc, ts remote.Transport, state []byte) (*echoSession, error) {
	reg, err := echoRegistry()
	if err != nil {
		return nil, err
	}
	cvm := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 64 << 20})
	svm := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 256 << 20, CPUSpeed: 3.5})
	opts := remote.Options{Workers: 2}
	pc := remote.NewPeer(cvm, tc, opts)
	ps := remote.NewPeer(svm, ts, opts)
	e := &echoSession{cvm: cvm, peer: pc}
	e.closer = func() error {
		err := pc.Close()
		if cerr := ps.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if err := e.offloadEcho(state); err != nil {
		_ = e.closer()
		return nil, err
	}
	return e, nil
}

func (e *echoSession) close() error { return e.closer() }

// payloadPool is the seeded input of the echo workloads: blobs of
// uniformly drawn sizes in [min,max] with random contents.
func payloadPool(rng *rand.Rand, n, min, max int) [][]byte {
	pool := make([][]byte, n)
	for i := range pool {
		b := make([]byte, min+rng.Intn(max-min+1))
		rng.Read(b)
		pool[i] = b
	}
	return pool
}
