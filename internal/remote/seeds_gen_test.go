package remote

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestRegenerateFuzzSeeds rewrites the checked-in corpus seeds that are
// derived from codecMessages(): one file per late-added message kind
// plus a truncated frame. Seeds 25 and 26 are not rewritten: they are
// fixed frames of the retired kind 16, which the codec still carries and
// serve refuses. Guarded so a normal test run never touches
// testdata; regenerate after a codec change with
//
//	AIDE_REGEN_SEEDS=1 go test -run TestRegenerateFuzzSeeds ./internal/remote
func TestRegenerateFuzzSeeds(t *testing.T) {
	if os.Getenv("AIDE_REGEN_SEEDS") == "" {
		t.Skip("set AIDE_REGEN_SEEDS=1 to rewrite the fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzMessageRoundTrip")
	write := func(name string, data []byte) {
		t.Helper()
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var invoke, batch, snap []byte
	for _, m := range codecMessages() {
		buf := appendMessage(nil, m)
		switch {
		case m.Kind == MsgInvoke && !m.Reply && invoke == nil:
			invoke = buf
		case m.Kind == MsgPong:
			write("seed-19-pong", buf)
		case m.Kind == MsgReleaseBatch:
			write("seed-20-release-batch", buf)
		case m.Kind == MsgPing && !m.Reply:
			write("seed-22-ping-request", buf)
		case m.Kind == MsgInvokeBatch && !m.Reply:
			batch = buf
			write("seed-23-invoke-batch", buf)
		case m.Kind == MsgInvokeBatch && m.Reply && m.Err != "":
			write("seed-24-invoke-batch-error-reply", buf)
		case m.Kind == MsgSnapshot && !m.Reply && m.Method == "restore" && snap == nil:
			snap = buf
			write("seed-28-snapshot-chunk", buf)
		case m.Kind == MsgSnapshot && m.Reply && m.Err != "":
			write("seed-30-snapshot-drained-reply", buf)
		}
	}
	// A mid-payload truncation: the decoder must reject it, and the
	// fuzzer mutates outward from the cut point.
	write("seed-21-truncated-invoke", invoke[:len(invoke)/2])
	// Cut inside the multi-invoke frame's call list.
	write("seed-27-truncated-invoke-batch", batch[:len(batch)*2/3])
	// Cut inside the snapshot image's bytes.
	write("seed-29-truncated-snapshot-chunk", snap[:len(snap)-2])
	// A snapshot push whose blob declares far more bytes than follow.
	write("seed-32-oversize-snapshot-blob",
		[]byte{wireVersion, byte(MsgSnapshot), 1, tagBlob, 0xff, 0xff, 0xff, 0xff, 0x0f})
	// A snapshot push leading with a bad image version byte in the blob:
	// the frame decodes, the image layer must reject it.
	write("seed-33-bad-image-version",
		appendMessage(nil, &Message{Kind: MsgSnapshot, ID: 9, Method: "restore", Blob: []byte{0x7f, 1, 0}}))
}
