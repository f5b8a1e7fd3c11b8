package device

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/tmerge/tmerge/internal/xrand"
)

// ErrClosed reports a submission against a device retired with Close.
// It wraps ErrUnavailable is-wise via the returned error chain, so
// callers that degrade on unavailability degrade on closure too.
var ErrClosed = errors.New("device closed")

// RetryPolicy bounds how hard a ResilientDevice works to complete one
// submission: up to MaxAttempts attempts, separated by exponential
// backoff with deterministic jitter. Backoff delays are charged to the
// wrapped device's virtual clock, so retries show up in the modeled
// throughput exactly like any other cost.
type RetryPolicy struct {
	// MaxAttempts is the per-submission attempt budget (first attempt
	// included). Values <= 0 default to 4.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry. Values <= 0
	// default to 200µs.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Values <= 0 default to 5ms.
	MaxDelay time.Duration
	// Multiplier grows the backoff between retries. Values < 1 default
	// to 2.
	Multiplier float64
	// Jitter is the fraction of each delay that is randomised: the
	// charged delay is delay·(1 + Jitter·u) with u uniform in [-1, 1),
	// drawn from a seeded stream so runs stay reproducible. Clamped to
	// [0, 1].
	Jitter float64
}

// DefaultRetryPolicy returns the retry policy used when fields are unset:
// 4 attempts, 200µs base delay doubling up to 5ms, 50% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 200 * time.Microsecond, MaxDelay: 5 * time.Millisecond, Multiplier: 2, Jitter: 0.5}
}

// BreakerConfig parameterises the circuit breaker: closed → open after
// Threshold consecutive failed attempts; open → half-open once the
// cooldown is over; half-open → closed on a successful probe, back to
// open on a failed one.
//
// Because time here is virtual (it advances only when work executes), a
// purely time-based cooldown could never elapse while the breaker is
// rejecting everything. The cooldown is therefore over when EITHER
// enough virtual time has passed OR enough submissions have been
// rejected while open — whichever happens first. Setting both fields to
// zero makes every submission after a trip a half-open probe.
type BreakerConfig struct {
	// Threshold is the number of consecutive failed attempts that trips
	// the breaker. Values <= 0 default to 5.
	Threshold int
	// Cooldown is the virtual time the breaker stays open before a
	// probe is allowed. <= 0 disables the time criterion.
	Cooldown time.Duration
	// CooldownRejections is the number of submissions rejected while
	// open before a probe is allowed. <= 0 disables the count
	// criterion.
	CooldownRejections int
}

// DefaultBreakerConfig returns the breaker used when fields are unset:
// trip after 5 consecutive failures, probe after 2ms of virtual time or
// 3 rejected submissions.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{Threshold: 5, Cooldown: 2 * time.Millisecond, CooldownRejections: 3}
}

// BreakerState is the circuit breaker's state.
type BreakerState int

const (
	// BreakerClosed: submissions flow to the inner device normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: submissions are rejected without touching the inner
	// device until the cooldown is over.
	BreakerOpen
	// BreakerHalfOpen: one probe submission is in flight; its outcome
	// decides between Closed and Open.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// ResilientCounters counts what the retry/breaker machinery did — the
// fault-path analogue of reid.Stats, reported alongside it in
// core.PipelineResult.Resilience.
type ResilientCounters struct {
	Submissions int64 // TrySubmit/Submit calls (logical submissions)
	Attempts    int64 // attempts issued to the inner device
	Retries     int64 // attempts beyond a submission's first
	Failures    int64 // failed inner attempts
	Rejected    int64 // submissions fast-failed while the breaker was open
	Trips       int64 // closed/half-open → open transitions
	Probes      int64 // half-open probe attempts (successes included)
}

// Sub returns the element-wise difference c − o, for computing per-pass
// deltas from two snapshots.
func (c ResilientCounters) Sub(o ResilientCounters) ResilientCounters {
	return ResilientCounters{
		Submissions: c.Submissions - o.Submissions,
		Attempts:    c.Attempts - o.Attempts,
		Retries:     c.Retries - o.Retries,
		Failures:    c.Failures - o.Failures,
		Rejected:    c.Rejected - o.Rejected,
		Trips:       c.Trips - o.Trips,
		Probes:      c.Probes - o.Probes,
	}
}

// ResilientDevice wraps a fallible device with retry, exponential backoff
// with jitter, and a circuit breaker, masking transient faults from the
// oracle. Its TrySubmit either completes the submission or reports
// unavailability, and the window engine's certify step
// (reid.Oracle.ReplayBatch) degrades a window to the spatial prior on
// that error; its Submit panics with *Unavailable instead (see
// Unavailable).
//
// ResilientDevice is safe for concurrent use; concurrent submissions are
// serialised (the wrapped accelerator still parallelises each
// submission's items internally).
type ResilientDevice struct {
	mu      sync.Mutex
	inner   Fallible
	retry   RetryPolicy
	breaker BreakerConfig
	rng     *xrand.RNG

	state       BreakerState
	consecutive int           // consecutive failed attempts
	openedAt    time.Duration // inner clock reading at the last trip
	rejects     int           // submissions rejected since the last trip
	closed      bool          // retired via Close; all submissions refused
	c           ResilientCounters
}

// NewResilientDevice wraps inner (adapted via AsFallible) with the given
// retry policy and breaker. Zero-valued fields of either config take the
// documented defaults. seed drives the backoff jitter.
func NewResilientDevice(inner Device, retry RetryPolicy, breaker BreakerConfig, seed uint64) *ResilientDevice {
	def := DefaultRetryPolicy()
	if retry.MaxAttempts <= 0 {
		retry.MaxAttempts = def.MaxAttempts
	}
	if retry.BaseDelay <= 0 {
		retry.BaseDelay = def.BaseDelay
	}
	if retry.MaxDelay <= 0 {
		retry.MaxDelay = def.MaxDelay
	}
	if retry.Multiplier < 1 {
		retry.Multiplier = def.Multiplier
	}
	if retry.Jitter < 0 {
		retry.Jitter = 0
	}
	if retry.Jitter > 1 {
		retry.Jitter = 1
	}
	if breaker.Threshold <= 0 {
		breaker.Threshold = DefaultBreakerConfig().Threshold
	}
	return &ResilientDevice{
		inner:   AsFallible(inner),
		retry:   retry,
		breaker: breaker,
		rng:     xrand.Derive(seed, "device:resilient"),
	}
}

// Name implements Device.
func (d *ResilientDevice) Name() string { return "resilient(" + d.inner.Name() + ")" }

// Clock implements Device, delegating to the inner device: backoff
// delays are charged there, so one clock carries the full virtual cost.
func (d *ResilientDevice) Clock() *Clock { return d.inner.Clock() }

// Submissions implements Device, counting logical submissions (one per
// Submit/TrySubmit call, successful or not). Counters() breaks these
// down into attempts, retries, and rejections.
func (d *ResilientDevice) Submissions() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.c.Submissions
}

// Inner returns the wrapped device.
func (d *ResilientDevice) Inner() Fallible { return d.inner }

// State returns the breaker's current state.
func (d *ResilientDevice) State() BreakerState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Counters returns a snapshot of the retry/breaker counters.
func (d *ResilientDevice) Counters() ResilientCounters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.c
}

// ResilientState is a serialisable snapshot of a ResilientDevice's
// mutable state: breaker position, failure streak, cooldown bookkeeping,
// counters, and the jitter RNG. Together with the inner device's clock it
// is everything needed to resume the device deterministically after a
// process restart.
type ResilientState struct {
	Breaker     BreakerState      `json:"breaker"`
	Consecutive int               `json:"consecutive"`
	OpenedAtNS  int64             `json:"opened_at_ns"`
	Rejects     int               `json:"rejects"`
	Counters    ResilientCounters `json:"counters"`
	RNG         xrand.State       `json:"rng"`
}

// ExportState snapshots the device's mutable state for checkpointing.
func (d *ResilientDevice) ExportState() ResilientState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return ResilientState{
		Breaker:     d.state,
		Consecutive: d.consecutive,
		OpenedAtNS:  int64(d.openedAt),
		Rejects:     d.rejects,
		Counters:    d.c,
		RNG:         d.rng.State(),
	}
}

// ImportState overwrites the device's mutable state with a snapshot taken
// by ExportState. It returns an error for snapshots naming an impossible
// breaker state, leaving the device untouched.
func (d *ResilientDevice) ImportState(st ResilientState) error {
	if st.Breaker < BreakerClosed || st.Breaker > BreakerHalfOpen {
		return fmt.Errorf("device: resilient snapshot has invalid breaker state %d", int(st.Breaker))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.state = st.Breaker
	d.consecutive = st.Consecutive
	d.openedAt = time.Duration(st.OpenedAtNS)
	d.rejects = st.Rejects
	d.c = st.Counters
	d.rng.SetState(st.RNG)
	return nil
}

// ResetBreaker force-closes the breaker and clears the failure streak,
// e.g. after an operator has restored the backing service.
func (d *ResilientDevice) ResetBreaker() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.state = BreakerClosed
	d.consecutive = 0
	d.rejects = 0
}

// Close retires the device: every subsequent TrySubmit fails with an
// error matching both ErrClosed and ErrUnavailable, and Submit panics
// with *Unavailable. The serving layer closes the device chain of a
// pipeline it has replaced during crash recovery, so a stray goroutine
// still holding the retired chain fails loudly instead of silently
// advancing a clock nothing reads. Close is idempotent and safe to call
// concurrently with in-flight submissions (it does not wait for them;
// an in-flight submission completes normally). It never returns a
// non-nil error; the signature matches the conventional closer shape.
func (d *ResilientDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// Submit implements Device. It panics with *Unavailable when the
// submission cannot be completed; see Fallible.
func (d *ResilientDevice) Submit(nExtract, nDistance int, run func(i int)) {
	if err := d.TrySubmit(nExtract, nDistance, run); err != nil {
		panic(&Unavailable{Err: err})
	}
}

// TrySubmit implements Fallible: attempt the submission against the
// inner device under the retry policy, maintaining the breaker state.
func (d *ResilientDevice) TrySubmit(nExtract, nDistance int, run func(i int)) error {
	validateSubmission(nExtract, nDistance, run)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		// Counters stay frozen at their retirement values: a closed
		// device's state is already checkpointed or discarded, and a
		// refused call must not perturb it.
		return fmt.Errorf("resilient(%s): %w: %w", d.inner.Name(), ErrClosed, ErrUnavailable)
	}
	d.c.Submissions++

	if d.state == BreakerOpen {
		if !d.cooldownOverLocked() {
			d.rejects++
			d.c.Rejected++
			return fmt.Errorf("resilient(%s): circuit open: %w", d.inner.Name(), ErrUnavailable)
		}
		d.state = BreakerHalfOpen
	}
	probing := d.state == BreakerHalfOpen

	attempts := d.retry.MaxAttempts
	if probing {
		attempts = 1 // a single probe decides the breaker's fate
	}
	delay := d.retry.BaseDelay
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			d.c.Retries++
			d.inner.Clock().Add(d.jitteredLocked(delay))
			delay = time.Duration(float64(delay) * d.retry.Multiplier)
			if delay > d.retry.MaxDelay {
				delay = d.retry.MaxDelay
			}
		}
		d.c.Attempts++
		if probing {
			d.c.Probes++
		}
		//tmerge:allow lock-discipline breaker state machine requires single-flight submissions; the inner device blocks only on modeled virtual time
		err := d.inner.TrySubmit(nExtract, nDistance, run)
		if err == nil {
			d.consecutive = 0
			d.state = BreakerClosed
			return nil
		}
		lastErr = err
		d.c.Failures++
		d.consecutive++
		if probing || d.consecutive >= d.breaker.Threshold {
			d.tripLocked()
			return fmt.Errorf("resilient(%s): circuit opened after %d consecutive failures: %w (last: %w)",
				d.inner.Name(), d.breaker.Threshold, ErrUnavailable, lastErr)
		}
	}
	return fmt.Errorf("resilient(%s): attempt budget (%d) exhausted: %w (last: %w)",
		d.inner.Name(), attempts, ErrUnavailable, lastErr)
}

// tripLocked transitions to Open and records the trip.
func (d *ResilientDevice) tripLocked() {
	d.state = BreakerOpen
	d.openedAt = d.inner.Clock().Elapsed()
	d.rejects = 0
	d.consecutive = 0
	d.c.Trips++
}

// cooldownOverLocked decides whether an open breaker may probe. See
// BreakerConfig for why rejection counting exists alongside virtual time.
func (d *ResilientDevice) cooldownOverLocked() bool {
	cd, cr := d.breaker.Cooldown, d.breaker.CooldownRejections
	if cd <= 0 && cr <= 0 {
		return true
	}
	if cd > 0 && d.inner.Clock().Elapsed()-d.openedAt >= cd {
		return true
	}
	if cr > 0 && d.rejects >= cr {
		return true
	}
	return false
}

// jitteredLocked applies the policy's jitter to a backoff delay.
func (d *ResilientDevice) jitteredLocked(delay time.Duration) time.Duration {
	if d.retry.Jitter <= 0 {
		return delay
	}
	u := 2*d.rng.Float64() - 1
	out := time.Duration(float64(delay) * (1 + d.retry.Jitter*u))
	if out < 0 {
		out = 0
	}
	return out
}
