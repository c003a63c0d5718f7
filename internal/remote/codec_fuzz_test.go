package remote

import (
	"bytes"
	"testing"
)

// FuzzMessageRoundTrip feeds arbitrary bytes to the frame decoder. Any
// payload the decoder accepts must re-encode canonically: encoding the
// decoded message, decoding that, and encoding again must be
// byte-identical (byte comparison sidesteps NaN != NaN), and the frame
// codec must stamp the frame's length at both ends. Inputs the decoder
// rejects are fine — the invariant is that acceptance implies canonical
// round-tripping, never a silent misread.
//
// The seed corpus in testdata/fuzz/FuzzMessageRoundTrip holds one
// encoded payload per message kind; `go test -run=FuzzMessageRoundTrip`
// replays it deterministically in CI, `go test -fuzz=FuzzMessageRoundTrip`
// explores from it.
func FuzzMessageRoundTrip(f *testing.F) {
	for _, m := range codecMessages() {
		f.Add(appendMessage(nil, m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMessage(data)
		if err != nil {
			return
		}
		b1 := appendMessage(nil, m)
		frame, err := AppendFrame(nil, m)
		if err != nil || !bytes.HasSuffix(frame, b1) {
			t.Fatalf("frame %x of payload %x (%v)", frame, b1, err)
		}
		if mf, err := DecodeFrame(frame); err != nil || mf.Wire != int64(len(frame)) || m.Wire != mf.Wire {
			t.Fatalf("a %d-byte frame was stamped %d encoding it, %+v decoding it (%v)", len(frame), m.Wire, mf, err)
		}
		m2, err := decodeMessage(b1)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		b2 := appendMessage(nil, m2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("canonical encoding is not a fixed point:\n b1 %x\n b2 %x", b1, b2)
		}
	})
}
