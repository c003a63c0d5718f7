package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The benchmark's own span recorder. A traced run wraps every call the
// benchmark makes into a layer in a span — name, start, end, the span
// that caused it, and the id of the operation it belongs to — kept in
// memory and written out when the run ends. Spans inside the platform
// are a later change; these sit at the boundary the benchmark can see.

// span is one timed call. Times are nanoseconds since the recorder was
// created; Parent is an index into the same track, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    uint32 `json:"req"`
}

// maxSpansPerTrack bounds memory: a 20 µs invoke loop would otherwise
// record millions of spans. Spans past the cap are counted, not kept.
const maxSpansPerTrack = 1 << 18

// spansWrittenPerTrack bounds the trace file; the aggregate table in it
// covers every span kept in memory.
const spansWrittenPerTrack = 20000

// recorder owns the tracks of one traced run.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	tracks []*track
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// track is one goroutine's span list; a caller goroutine takes its own
// so recording never contends. All methods are nil-safe no-ops, which
// is how untraced runs share the workload code.
type track struct {
	rec     *recorder
	spans   []span
	open    []int32
	req     uint32
	dropped int64
}

func (r *recorder) track() *track {
	if r == nil {
		return nil
	}
	t := &track{rec: r}
	r.mu.Lock()
	r.tracks = append(r.tracks, t)
	r.mu.Unlock()
	return t
}

// nextReq starts a new operation: spans begun until the next call share
// its id.
func (t *track) nextReq() {
	if t != nil {
		t.req++
	}
}

// begin opens a span under the innermost open one and returns its
// handle for end.
func (t *track) begin(name string) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpansPerTrack {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.rec.epoch)), Parent: parent, Req: t.req})
	t.open = append(t.open, id)
	return id
}

func (t *track) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.rec.epoch))
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// layerBudget is the aggregate of one span name: how often it ran, how
// long in total, and its self time — duration minus the part its child
// spans cover.
type layerBudget struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
	P50Us   float64 `json:"p50_us"`
}

func (r *recorder) budget() []layerBudget {
	if r == nil {
		return nil
	}
	type acc struct {
		total, self int64
		durs        []float64
	}
	byName := map[string]*acc{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tracks {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 && s.End > s.Start {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			if s.End <= s.Start {
				continue
			}
			a := byName[s.Name]
			if a == nil {
				a = &acc{}
				byName[s.Name] = a
			}
			d := s.End - s.Start
			a.total += d
			a.self += d - child[i]
			a.durs = append(a.durs, float64(d)/1e3)
		}
	}
	out := make([]layerBudget, 0, len(byName))
	for name, a := range byName {
		out = append(out, layerBudget{
			Name: name, Count: len(a.durs),
			TotalUs: float64(a.total) / 1e3, SelfUs: float64(a.self) / 1e3,
			P50Us: median(a.durs),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (r *recorder) dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, t := range r.tracks {
		n += t.dropped
	}
	return n
}

// traceFile is what a traced run leaves in the -out directory.
type traceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Dropped  int64         `json:"spans_dropped"`
	Budget   []layerBudget `json:"budget"`
	Tracks   [][]span      `json:"tracks"`
}

func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf := traceFile{Workload: workload, Seed: seed, Dropped: r.dropped(), Budget: r.budget()}
	r.mu.Lock()
	for _, t := range r.tracks {
		s := t.spans
		if len(s) > spansWrittenPerTrack {
			s = s[:spansWrittenPerTrack]
		}
		tf.Tracks = append(tf.Tracks, s)
	}
	r.mu.Unlock()
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}

func printBudget(w io.Writer, b []layerBudget) {
	if len(b) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-34s %9s %14s %14s %12s\n", "span", "count", "total_us", "self_us", "p50_us")
	for _, l := range b {
		fmt.Fprintf(w, "  %-34s %9d %14.1f %14.1f %12.2f\n", l.Name, l.Count, l.TotalUs, l.SelfUs, l.P50Us)
	}
}
