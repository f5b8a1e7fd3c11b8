package device

import (
	"errors"
	"testing"
)

// plainWrapper decorates a device without implementing Fallible, the
// shape of a tracing or metering decorator.
type plainWrapper struct{ Device }

// chainLink is a wrapper exposing its inner device, like fault.Flaky.
type chainLink struct{ Fallible }

func (c chainLink) Inner() Fallible { return c.Fallible }

// TestAsFallibleReportsDecoratedUnavailable: a plain decorator around a
// device that gives out panics with *Unavailable from Submit; the
// adapter must report that as TrySubmit's error, not crash the caller.
func TestAsFallibleReportsDecoratedUnavailable(t *testing.T) {
	down := newFaultyResilient(1, 1, 3) // every attempt fails
	f := AsFallible(plainWrapper{down})
	err := f.TrySubmit(1, 1, func(int) {})
	var ua *Unavailable
	if !errors.As(err, &ua) {
		t.Fatalf("TrySubmit through a plain decorator = %v, want *Unavailable", err)
	}
	if err := AsFallible(plainWrapper{NewCPU(DefaultCPU)}).TrySubmit(1, 1, func(int) {}); err != nil {
		t.Fatalf("healthy device: %v", err)
	}
}

// TestFindResilient walks wrapper chains through Inner().
func TestFindResilient(t *testing.T) {
	rd := newFaultyResilient(0, 0, 1)
	for _, tc := range []struct {
		name string
		d    Device
		want *ResilientDevice
	}{
		{"top", rd, rd},
		{"wrapped", chainLink{rd}, rd},
		{"none", chainLink{AsFallible(NewCPU(DefaultCPU))}, nil},
		{"opaque", plainWrapper{rd}, nil},
		{"nil", nil, nil},
	} {
		if got := FindResilient(tc.d); got != tc.want {
			t.Errorf("%s: FindResilient = %p, want %p", tc.name, got, tc.want)
		}
	}
}
