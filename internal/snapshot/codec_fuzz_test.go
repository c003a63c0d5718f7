package snapshot

import (
	"bytes"
	"testing"
)

// FuzzImageDecode drives hostile bytes through Decode and pins the
// canonical fixed point: any accepted input must re-encode to exactly
// the bytes that were decoded. Rejections only need to be clean (no
// panic, no hang).
func FuzzImageDecode(f *testing.F) {
	f.Add(goldenImage().Encode())
	f.Add((&Image{}).Encode())
	// Truncated mid-object.
	f.Add([]byte{imageVersion, 2, 1, 1, 1, 'A'})
	// Bad version byte.
	f.Add([]byte{0x7f, 1, 0})
	// Oversize declared length: object count far beyond the input.
	f.Add([]byte{imageVersion, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Decode(data)
		if err != nil {
			return
		}
		out := img.Encode()
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted input is not canonical:\n in  %x\n out %x", data, out)
		}
		re, err := Decode(out)
		if err != nil {
			t.Fatalf("re-decode of canonical bytes failed: %v", err)
		}
		if !bytes.Equal(re.Encode(), out) {
			t.Fatal("encode/decode not a fixed point")
		}
	})
}
