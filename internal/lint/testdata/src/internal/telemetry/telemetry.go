// Package telemetry is a test stand-in for the real metrics package: its
// import path ends in internal/telemetry, which puts it in detcheck's
// scope, so its instruments may read only an injected clock.
package telemetry

import "time"

func stampNow() time.Time {
	return time.Now() // want `call to time\.Now in a deterministic path`
}

func age(t time.Time) time.Duration {
	return time.Since(t) // want `call to time\.Since in a deterministic path`
}

func remaining(t time.Time) time.Duration {
	return time.Until(t) // want `call to time\.Until in a deterministic path`
}

// injected clocks are the sanctioned pattern: taking time.Now as a value
// (not calling it) must stay clean.
var defaultClock func() time.Time = time.Now

// methods on time values are not wall-clock reads.
func round(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
