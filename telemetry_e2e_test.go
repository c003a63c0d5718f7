package aide

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"aide/internal/telemetry"
)

// getBody fetches a URL and returns status and body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts a plain `name value` sample from Prometheus text.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, body)
	return 0
}

// TestTelemetryEndToEnd boots a surrogate and a TCP client with live
// telemetry on both sides, exposes each over HTTP, drives a workload,
// and scrapes the endpoints the way aide-stat (and CI) do.
func TestTelemetryEndToEnd(t *testing.T) {
	reg := demoRegistry(t)

	sReg, sTr := NewTelemetry(), NewTracer(64)
	sTr.SetEnabled(true)
	surrogate := NewSurrogate(reg, WithTelemetry(sReg, sTr))
	addr, err := surrogate.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer surrogate.Close()
	sSrv, err := telemetry.Serve("127.0.0.1:0", telemetry.Handler(sReg, sTr, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer sSrv.Close()

	cReg, cTr := NewTelemetry(), NewTracer(64)
	cTr.SetEnabled(true)
	client := NewClient(reg, WithHeap(1<<20), WithTelemetry(cReg, cTr))
	defer client.Close()
	cSrv, err := telemetry.Serve("127.0.0.1:0", telemetry.Handler(cReg, cTr, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cSrv.Close()

	if err := client.AttachTCP(addr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := client.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	// A heavy Doc on the 1 MiB heap, then an explicit offload: exercises
	// the policy metrics, the migration path, and the repartition span.
	th := client.Thread()
	doc, err := th.New("Doc", 300<<10)
	if err != nil {
		t.Fatal(err)
	}
	client.VM().SetRoot("doc", doc)
	for i := 0; i < 3; i++ {
		if _, err := th.Invoke(doc, "append", Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Offload(); err != nil {
		t.Fatal(err)
	}
	// Every metric the wired layers registered has a lowercase_snake name
	// and one consistent kind: the registry refuses anything else and
	// records why.
	for side, r := range map[string]*telemetry.Registry{"client": cReg, "surrogate": sReg} {
		if err := r.Check(); err != nil {
			t.Errorf("%s registry: %v", side, err)
		}
	}

	// Surrogate side: health and served-request accounting.
	sBase := "http://" + sSrv.Addr()
	if code, body := getBody(t, sBase+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("surrogate /healthz = %d %q, want 200 ok", code, body)
	}
	_, sMetrics := getBody(t, sBase+"/metrics")
	if v := metricValue(t, sMetrics, "aide_remote_requests_served_total"); v <= 0 {
		t.Fatalf("surrogate served %v requests, want > 0", v)
	}

	// Client side: sent-request accounting and the policy pipeline.
	cBase := "http://" + cSrv.Addr()
	_, cMetrics := getBody(t, cBase+"/metrics")
	if v := metricValue(t, cMetrics, "aide_remote_requests_sent_total"); v <= 0 {
		t.Fatalf("client sent %v requests, want > 0", v)
	}
	if v := metricValue(t, cMetrics, "aide_policy_partitions_total"); v <= 0 {
		t.Fatalf("partitioning pipeline ran %v times, want > 0", v)
	}
	if v := metricValue(t, cMetrics, "aide_vm_invocations_local_total"); v <= 0 {
		t.Fatalf("client local invocations = %v, want > 0", v)
	}
	if !strings.Contains(cMetrics, "# TYPE aide_remote_call_latency_seconds histogram") {
		t.Fatal("client exposition missing the call-latency histogram family")
	}

	// /metrics.json decodes into a snapshot with the same families.
	_, cJSON := getBody(t, cBase+"/metrics.json")
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(cJSON), &snap); err != nil {
		t.Fatalf("decode /metrics.json: %v", err)
	}
	if len(snap.Families) == 0 {
		t.Fatal("/metrics.json returned no families")
	}

	// /events returns the span ring; the client traced its RPCs.
	_, cEvents := getBody(t, cBase+"/events")
	var spans []telemetry.Span
	if err := json.Unmarshal([]byte(cEvents), &spans); err != nil {
		t.Fatalf("decode /events: %v", err)
	}
	rpcs := 0
	for _, s := range spans {
		if s.Kind == telemetry.SpanRPC {
			rpcs++
		}
	}
	if rpcs == 0 {
		t.Fatalf("client /events has no RPC spans: %+v", spans)
	}

	// A bad health hook turns /healthz into a 503.
	bad := telemetry.Handler(sReg, sTr, func() error { return fmt.Errorf("heap exhausted") })
	bSrv, err := telemetry.Serve("127.0.0.1:0", bad)
	if err != nil {
		t.Fatal(err)
	}
	defer bSrv.Close()
	if code, body := getBody(t, "http://"+bSrv.Addr()+"/healthz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "heap exhausted") {
		t.Fatalf("unhealthy /healthz = %d %q, want 503 with cause", code, body)
	}
}
