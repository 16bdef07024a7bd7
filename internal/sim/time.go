// Package sim provides a deterministic discrete-event simulation engine.
//
// All Slingshot components run on virtual time with nanosecond resolution.
// The engine replaces the wall-clock realtime environment of the paper's
// testbed: a hard 500 µs TTI cadence cannot be held by a garbage-collected
// runtime, but every Slingshot mechanism is defined in terms of slot
// numbers and packet inter-arrival gaps, which virtual time reproduces
// exactly and deterministically.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common durations expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts a virtual-time delta to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns the time as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns the time as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Sub returns the delta t-u.
func (t Time) Sub(u Time) Time { return t - u }

func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// FromDuration converts a time.Duration to virtual Time.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }
