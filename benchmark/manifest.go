package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
)

// This file is the single declaration of what the benchmark measures:
// workloads, end-to-end metrics with their regression bounds, and
// per-layer metrics with the end-to-end metric each is expected to
// move. BENCHMARK.json at the repository root is generated from these
// tables (`-manifest`) and the smoke test pins the two against each
// other.

// metricDecl declares one metric.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"

	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Zero for
	// per-layer metrics, which carry no bound.
	Bound float64

	// Moves names, for a per-layer metric, the end-to-end metric (and
	// workload) an optimisation of that layer should move. Documentation
	// only: it is printed with the budget and kept in README.md.
	Moves string

	// Exact marks counts that must repeat bit-for-bit; they are checked
	// against testdata/golden.json.
	Exact bool
}

// End-to-end metric slots. The driver wants every end-to-end metric on
// every workload, so the names are positional and each workload fills
// them with its own user-visible operations (Alias below, and the table
// in README.md). Every bound is the 0.25 ceiling: ten runs of one build
// on the two-core sandbox spread by 2-15% depending on what else the
// host is doing, and a bound under three times the noise flags noise.
const (
	mSetup = "setup_s"
	mOpA   = "op_a_us"
	mOpB   = "op_b_us"
	mOpC   = "op_c_us"
	mOpD   = "op_d_us"
	mRate  = "rate_per_s"
)

var endToEnd = []metricDecl{
	{Name: mOpA, Unit: "us", Better: "lower", Bound: 0.25},
	{Name: mOpB, Unit: "us", Better: "lower", Bound: 0.25},
	{Name: mOpC, Unit: "us", Better: "lower", Bound: 0.25},
	{Name: mOpD, Unit: "us", Better: "lower", Bound: 0.25},
	{Name: mRate, Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25},
}

// alias is what one workload reports in an end-to-end slot, under the
// name and in the unit ISSUE 11 fixed for that operation (a name in the
// same style where the issue has none). Rows are printed and compared
// under this name; the value shown is the slot's times PerSlot.
type alias struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	PerSlot float64 `json:"per_slot_unit"`
}

// workloadDecl declares one workload. The names are fixed; later issues
// cite them.
type workloadDecl struct {
	Name string
	Why  string
	Run  func(context.Context, *runCtx) error

	// Alias says what this workload puts in each end-to-end slot.
	Alias map[string]alias
}

var workloads = []workloadDecl{
	{
		Name: "live_apps",
		Why:  "Whole pipeline, live client+surrogate on loopback TCP: vm, monitor; Dia never offloads.",
		Run:  runLiveApps,
		Alias: map[string]alias{
			mOpA:  {"javanote_run_ms_p50", "ms", 1e-3},
			mOpB:  {"biomer_run_ms_p50", "ms", 1e-3},
			mOpC:  {"dia_run_ms_p50", "ms", 1e-3},
			mOpD:  {"offload_ms_p50", "ms", 1e-3},
			mRate: {"offload_recall_per_s", "1/s", 1},
		},
	},
	{
		Name: "rpc_small",
		Why:  "Per-message cost through a surrogate session, 16-96 B echo: codec, peer, transport.",
		Run:  runRPCSmall,
		Alias: map[string]alias{
			mOpA:  {"invoke_us_p50", "us", 1},
			mOpB:  {"chain16_us_p50", "us", 1},
			mOpC:  {"invoke_us_p99", "us", 1},
			mOpD:  {"field_read_us_p50", "us", 1},
			mRate: {"invokes_per_s", "1/s", 1},
		},
	},
	{
		Name: "rpc_bulk",
		Why:  "Same layers driven by bytes, 64 KiB echo and 256 x 4 KiB objects: copies, buffer growth.",
		Run:  runRPCBulk,
		Alias: map[string]alias{
			mOpA:  {"invoke_us_p50", "us", 1},
			mOpB:  {"migrate_us_p50", "us", 1},
			mOpC:  {"invoke_us_p99", "us", 1},
			mOpD:  {"recall_us_p50", "us", 1},
			mRate: {"invokes_per_s", "1/s", 1},
		},
	},
	{
		Name: "repartition",
		Why:  "Adaptation loop with no network, at 5% churn: monitor, graph, mincut, policy.",
		Run:  runRepartition,
		Alias: map[string]alias{
			mOpA:  {"repartition_full_us_p50", "us", 1},
			mOpB:  {"repartition_delta_us_p50", "us", 1},
			mOpC:  {"n1000_delta_us_p50", "us", 1},
			mOpD:  {"n1000_full_us_p50", "us", 1},
			mRate: {"ingest_Mev_per_s", "Mev/s", 1e-6},
		},
	},
	{
		Name: "emu_replay",
		Why:  "Serial emulator replay of the Table-1 traces, results equal the golden: emulator host speed only.",
		Run:  runEmuReplay,
		Alias: map[string]alias{
			mOpA:  {"memory_diag_ms_p50", "ms", 1e-3},
			mOpB:  {"cpu_diag_ms_p50", "ms", 1e-3},
			mOpC:  {"figure6_8_ms_p50", "ms", 1e-3},
			mOpD:  {"figure10_ms_p50", "ms", 1e-3},
			mRate: {"emu_Mev_per_s", "Mev/s", 1e-6},
		},
	},
}

// slotLetters abbreviates the slots in a workload's `why`, the one place
// BENCHMARK.json has room to say what each slot holds on that workload.
var slotLetters = []struct{ slot, letter string }{{mOpA, "a"}, {mOpB, "b"}, {mOpC, "c"}, {mOpD, "d"}, {mRate, "rate"}}

func (w workloadDecl) why() string {
	s := w.Why
	for _, l := range slotLetters {
		s += " " + l.letter + "=" + w.Alias[l.slot].Name
	}
	return s
}

func workloadByName(name string) *workloadDecl {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Per-layer metrics. Layer names are the repository's module names.
// Every traced run reports every one of them: the probes time calls into
// each layer's public functions from outside, on fixed inputs, so the
// numbers compare across workloads and commits. Only the rt.* group
// (rt.cross_p_handoff_us apart, which is a probe) and
// bench.trace_overhead_frac describe the traced workload itself.
var perLayer = []metricDecl{
	// vm
	{Name: "vm.invoke_local_ns", Unit: "ns", Better: "lower", Moves: "op_a/op_c on live_apps (about half of a run)"},
	{Name: "vm.new_ns", Unit: "ns", Better: "lower", Moves: "op_a..op_c on live_apps"},
	{Name: "vm.collect_us", Unit: "us", Better: "lower", Moves: "op_a on live_apps; op_d (offload ends with a collection)"},
	{Name: "vm.app_plain_ms", Unit: "ms", Better: "lower", Moves: "op_a on live_apps"},
	{Name: "vm.wire_args_ns", Unit: "ns", Better: "lower", Moves: "op_a on rpc_small"},
	{Name: "vm.allocs_per_invoke", Unit: "count", Better: "lower", Moves: "op_a..op_c on live_apps"},
	// monitor
	{Name: "monitor.event_ns", Unit: "ns", Better: "lower", Moves: "rate on repartition; op_c on live_apps (about 30% of a Dia run)"},
	{Name: "monitor.event_ns_2src", Unit: "ns", Better: "lower", Moves: "none yet: two concurrent sources, the unproven stripes"},
	{Name: "monitor.app_overhead_ms", Unit: "ms", Better: "lower", Moves: "op_a..op_c on live_apps"},
	{Name: "monitor.graph_snapshot_us", Unit: "us", Better: "lower", Moves: "op_a on repartition"},
	{Name: "monitor.delta_us", Unit: "us", Better: "lower", Moves: "op_b on repartition"},
	{Name: "monitor.events_total", Unit: "count", Better: "lower", Exact: true, Moves: "none: work count"},
	// graph
	{Name: "graph.clone_us", Unit: "us", Better: "lower", Moves: "op_a on repartition"},
	{Name: "graph.delta_us", Unit: "us", Better: "lower", Moves: "op_b on repartition"},
	// mincut
	{Name: "mincut.fromgraph_us", Unit: "us", Better: "lower", Moves: "op_a on repartition"},
	{Name: "mincut.candidates_us", Unit: "us", Better: "lower", Moves: "op_a on repartition; <0.1 ms of op_d on live_apps"},
	{Name: "mincut.candidates_count", Unit: "count", Better: "lower", Exact: true, Moves: "none: work count"},
	{Name: "mincut.inc_update_us", Unit: "us", Better: "lower", Moves: "op_b on repartition"},
	{Name: "mincut.inc_candidates_us", Unit: "us", Better: "lower", Moves: "op_b on repartition"},
	{Name: "mincut.inc_warm_frac", Unit: "ratio", Better: "higher", Moves: "op_b on repartition"},
	{Name: "mincut.allocs_per_repartition", Unit: "count", Better: "lower", Moves: "op_a on repartition"},
	{Name: "mincut.n1000_full_us", Unit: "us", Better: "lower", Moves: "op_d on repartition"},
	{Name: "mincut.n1000_delta_us", Unit: "us", Better: "lower", Moves: "op_c on repartition"},
	// policy
	{Name: "policy.choose_us", Unit: "us", Better: "lower", Moves: "op_a on repartition (most of it); <=1 ms of op_d on live_apps"},
	{Name: "policy.choose_dense_us", Unit: "us", Better: "lower", Moves: "op_b on repartition"},
	{Name: "policy.cpu_choose_us", Unit: "us", Better: "lower", Moves: "none on the live path; emulator CPU mode on emu_replay"},
	{Name: "policy.rejected_frac", Unit: "ratio", Better: "lower", Moves: "none: decision mix"},
	// codec
	{Name: "codec.frame_small_ns", Unit: "ns", Better: "lower", Moves: "op_a on rpc_small"},
	{Name: "codec.frame_64k_ns", Unit: "ns", Better: "lower", Moves: "op_a and rate on rpc_bulk"},
	{Name: "codec.allocs_small", Unit: "count", Better: "lower", Moves: "op_a on rpc_small"},
	{Name: "codec.wire_bytes_small", Unit: "B", Better: "lower", Exact: true, Moves: "none: work count"},
	// transport
	{Name: "transport.tcp_floor_us", Unit: "us", Better: "lower", Moves: "none: the host's loopback floor under every rpc number"},
	{Name: "transport.rtt_small_us", Unit: "us", Better: "lower", Moves: "op_a on rpc_small; rate more than its latency share (shared writer)"},
	{Name: "transport.rtt_64k_us", Unit: "us", Better: "lower", Moves: "op_a on rpc_bulk"},
	{Name: "transport.chan_rtt_us", Unit: "us", Better: "lower", Moves: "none on TCP workloads: in-process transport"},
	// peer
	{Name: "peer.ping_us", Unit: "us", Better: "lower", Moves: "op_a, op_d on rpc_small"},
	{Name: "peer.invoke_bare_us", Unit: "us", Better: "lower", Moves: "op_a, op_d, rate on rpc_small; op_a on live_apps, not op_c"},
	{Name: "peer.invoke_chan_us", Unit: "us", Better: "lower", Moves: "none on TCP workloads"},
	{Name: "peer.allocs_per_invoke", Unit: "count", Better: "lower", Moves: "op_a, rate on rpc_small"},
	{Name: "peer.heap_bytes_per_invoke", Unit: "B", Better: "lower", Moves: "rate on rpc_small and rpc_bulk"},
	{Name: "peer.wire_bytes_per_invoke", Unit: "B", Better: "lower", Exact: true, Moves: "none: work count"},
	{Name: "peer.release_batches_per_1k", Unit: "count", Better: "lower", Moves: "op_a on live_apps (distributed GC traffic)"},
	{Name: "peer.pipeline_frames_per_chain", Unit: "count", Better: "lower", Exact: true, Moves: "op_b on rpc_small"},
	{Name: "peer.retries", Unit: "count", Better: "lower", Moves: "none: expected 0"},
	{Name: "peer.timeouts", Unit: "count", Better: "lower", Moves: "none: expected 0"},
	{Name: "peer.orphan_replies", Unit: "count", Better: "lower", Moves: "none: expected 0"},
	{Name: "peer.migrate_MBps", Unit: "MB/s", Better: "higher", Moves: "op_b on rpc_bulk"},
	{Name: "peer.recall_MBps", Unit: "MB/s", Better: "higher", Moves: "op_b on rpc_bulk"},
	// surrogate
	{Name: "surrogate.session_gate_us", Unit: "us", Better: "lower", Moves: "op_a on rpc_small"},
	{Name: "surrogate.attach_us", Unit: "us", Better: "lower", Moves: "attach_p50 on live_apps (reported, not gated)"},
	{Name: "surrogate.listen_us", Unit: "us", Better: "lower", Moves: "setup_s on live_apps"},
	{Name: "surrogate.sessions_admitted", Unit: "count", Better: "higher", Moves: "none: work count"},
	{Name: "surrogate.rejected", Unit: "count", Better: "lower", Moves: "none: expected 0"},
	// client
	{Name: "client.offload_graph_us", Unit: "us", Better: "lower", Moves: "op_d on live_apps"},
	{Name: "client.offload_cut_us", Unit: "us", Better: "lower", Moves: "op_d on live_apps"},
	{Name: "client.offload_choose_us", Unit: "us", Better: "lower", Moves: "op_d on live_apps"},
	{Name: "client.offload_migrate_us", Unit: "us", Better: "lower", Moves: "op_d, rate on live_apps"},
	{Name: "client.offload_collect_us", Unit: "us", Better: "lower", Moves: "op_d on live_apps"},
	{Name: "client.offload_unattributed_frac", Unit: "ratio", Better: "lower", Moves: "none: budget remainder"},
	{Name: "client.recall_ms_p50", Unit: "ms", Better: "lower", Moves: "rate on live_apps"},
	{Name: "client.remote_calls_per_javanote", Unit: "count", Better: "lower", Moves: "op_a on live_apps"},
	{Name: "client.wire_bytes_per_javanote", Unit: "B", Better: "lower", Moves: "op_a on live_apps"},
	// snapshot
	{Name: "snapshot.encode_us", Unit: "us", Better: "lower", Moves: "none yet: anchors the later handoff workload"},
	{Name: "snapshot.decode_us", Unit: "us", Better: "lower", Moves: "none yet: anchors the later handoff workload"},
	{Name: "snapshot.bytes_per_object", Unit: "B", Better: "lower", Exact: true, Moves: "none yet"},
	// emulator, apps, trace
	{Name: "emulator.javanote_ns_per_event", Unit: "ns", Better: "lower", Moves: "op_a, rate on emu_replay"},
	{Name: "emulator.dia_ns_per_event", Unit: "ns", Better: "lower", Moves: "op_a, rate on emu_replay"},
	{Name: "emulator.biomer_ns_per_event", Unit: "ns", Better: "lower", Moves: "op_a, op_b, rate on emu_replay"},
	{Name: "emulator.voxel_ns_per_event", Unit: "ns", Better: "lower", Moves: "op_b, op_d on emu_replay"},
	{Name: "emulator.tracer_ns_per_event", Unit: "ns", Better: "lower", Moves: "op_b, op_d on emu_replay"},
	{Name: "emulator.partitions_total", Unit: "count", Better: "lower", Exact: true, Moves: "none: work count"},
	{Name: "emulator.digest_ok", Unit: "bool", Better: "higher", Moves: "none: 1 when every simulated result equals the golden"},
	{Name: "apps.record_s", Unit: "s", Better: "lower", Moves: "setup_s on repartition and emu_replay"},
	{Name: "trace.events_total", Unit: "count", Better: "lower", Exact: true, Moves: "none: work count"},
	// rt: the Go runtime of the benchmark process during the traced workload
	{Name: "rt.cpu_s", Unit: "s", Better: "lower", Moves: "every rate: processor time behind the wall clock"},
	{Name: "rt.cpu_busy_frac", Unit: "ratio", Better: "lower", Moves: "says whether a throughput change was measured on a saturated processor"},
	{Name: "rt.num_gc", Unit: "count", Better: "lower", Moves: "op_d on rpc_* (tail)"},
	{Name: "rt.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "op_d on rpc_* (tail)"},
	{Name: "rt.alloc_MB", Unit: "MB", Better: "lower", Moves: "rate on rpc_bulk"},
	{Name: "rt.peak_rss_MB", Unit: "MB", Better: "lower", Moves: "none: memory of the whole process"},
	{Name: "rt.cross_p_handoff_us", Unit: "us", Better: "lower", Moves: "op_a, op_c, op_d on rpc_small: a session invoke at the process's GOMAXPROCS minus the same on one processor"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Moves: "none: traced vs untraced op_a of this workload"},
}

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// defaultRunSeconds is how long one run measures; BENCHMARK.json
// carries the same number and the driver passes it back as -seconds.
const defaultRunSeconds = 16

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultRunSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.Name, Why: w.why()})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func (m manifest) encode() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// manifestPath is where the contract lives: the root of the repository,
// which is the directory run.sh starts the program in.
const manifestPath = "BENCHMARK.json"

// loadManifest reads BENCHMARK.json; -compare and -selfcheck take their
// bounds from the file, not from the tables compiled into this binary,
// so that an old binary's results are judged by the current contract.
func loadManifest() (manifest, error) {
	var m manifest
	b, err := os.ReadFile(manifestPath)
	if err != nil {
		return m, fmt.Errorf("read manifest: %w", err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("parse %s: %w", manifestPath, err)
	}
	return m, nil
}
