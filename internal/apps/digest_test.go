package apps

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"aide/internal/trace"
)

// TestRecordingDigests pins each Table-1 recording, byte for byte as
// trace.Write writes it: how the VM reports events to the monitor, and how
// the monitor mirrors them to the recorder, must not move a single event
// of what the emulator replays.
func TestRecordingDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("records the five Table-1 applications")
	}
	want := map[string]string{
		"JavaNote": "2aab9e719a4360f5ac76d8588b4e25515d90086727207f28ed42d715661e5c63",
		"Dia":      "1afed0a13eeec0ddf7fd034e72ee0fc4d402eccdc0f522850e94fac3b1be2f34",
		"Biomer":   "2fa80587a0e6f1a8987a0ccf8657486cfa95cc30527fa5c89043b2c29e56b219",
		"Voxel":    "ed3c6db42fdf4f8412af3e8d705f2fd97bd8883311aebae1ae84b1cbcd5c9eac",
		"Tracer":   "afbdd28d503da54524861eedb3fd7da0c290e58b6a41bbd9df04f14474d5774a",
	}
	for _, spec := range All() {
		tr, err := Record(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[spec.Name] {
			t.Errorf("%s: recording digest %s, want %s", spec.Name, got, want[spec.Name])
		}
	}
}
