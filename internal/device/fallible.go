package device

import (
	"errors"
	"fmt"
)

// ErrUnavailable marks a submission that was refused or abandoned because
// the device is out of service — a circuit breaker is open, or a retry
// budget was exhausted without a successful attempt. Wrap-aware: check
// with errors.Is.
var ErrUnavailable = errors.New("device unavailable")

// Unavailable is the panic value raised by the infallible Submit path of a
// fallible device when a submission cannot be served (see Fallible), and
// the error TrySubmit returns for one. The window engine
// (core.RunWindows, under core.RunPipeline and ingest.Ingestor) never
// meets the panic: it certifies each window's submissions through
// reid.Oracle.ReplayBatch, which calls TrySubmit, and degrades a window
// whose replay returns this error. Apart from AsFallible's adapter,
// which turns a decorated device's panic into its TrySubmit error,
// nothing in the module recovers the panic: it reaches only a caller
// that runs Select directly against a real fallible oracle.
type Unavailable struct {
	// Err is the underlying submission error (retry-budget exhaustion,
	// open breaker, injected fault, ...).
	Err error
}

// Error implements error.
func (u *Unavailable) Error() string { return fmt.Sprintf("device: submission failed: %v", u.Err) }

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (u *Unavailable) Unwrap() error { return u.Err }

// Fallible is a Device whose submissions can fail: remote accelerator
// services drop requests, time out, and suffer outages. TrySubmit is the
// error-returning twin of Submit; Submit on a Fallible device must either
// succeed or panic with *Unavailable. The built-in CPU and accelerator
// devices implement Fallible trivially (local execution never fails);
// fault.Flaky injects failures and ResilientDevice masks them.
type Fallible interface {
	Device
	// TrySubmit executes one submission like Device.Submit but reports
	// failure instead of guaranteeing completion. On error the
	// submission's results must not be used: the work may be partially
	// executed, wholly unexecuted, or executed-but-expired (deadline).
	// Retrying with the same run function is safe as long as run is
	// idempotent, which every oracle execution path guarantees (run(i)
	// writes only slot i of a results slice).
	TrySubmit(nExtract, nDistance int, run func(i int)) error
}

// TrySubmit implements Fallible: local serial execution cannot fail.
func (d *cpu) TrySubmit(nExtract, nDistance int, run func(i int)) error {
	d.Submit(nExtract, nDistance, run)
	return nil
}

// TrySubmit implements Fallible: local parallel execution cannot fail.
func (d *accelerator) TrySubmit(nExtract, nDistance int, run func(i int)) error {
	d.Submit(nExtract, nDistance, run)
	return nil
}

// AsFallible adapts d to the Fallible contract. Devices that already
// implement Fallible are returned unchanged; anything else is wrapped in
// an adapter whose TrySubmit reports the *Unavailable panic of a
// fallible device d decorates (a plain-Device wrapper around a
// ResilientDevice, say) as its error, and otherwise succeeds.
func AsFallible(d Device) Fallible {
	if f, ok := d.(Fallible); ok {
		return f
	}
	return infallible{d}
}

// infallible adapts a plain Device to Fallible.
type infallible struct{ Device }

func (w infallible) TrySubmit(nExtract, nDistance int, run func(i int)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ua, ok := r.(*Unavailable)
			if !ok {
				panic(r)
			}
			err = ua
		}
	}()
	w.Submit(nExtract, nDistance, run)
	return nil
}

// FindResilient returns the outermost ResilientDevice in d's wrapper
// chain, following Inner() through every wrapper that has one, or nil
// when the chain has none.
func FindResilient(d Device) *ResilientDevice {
	for d != nil {
		switch v := d.(type) {
		case *ResilientDevice:
			return v
		case interface{ Inner() Fallible }:
			d = v.Inner()
		default:
			return nil
		}
	}
	return nil
}
