package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"aide/internal/apps"
	"aide/internal/trace"
)

// TestRecordingsRoundTrip writes and reads back all five Table-1
// recordings: the format carries every field of a real trace.
func TestRecordingsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("records all five applications")
	}
	for _, spec := range apps.All() {
		tr, err := apps.Record(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Errorf("%s: round trip altered the trace", spec.Name)
		}
	}
}
