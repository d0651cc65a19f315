// Package faultpoint provides named fault-injection points for chaos
// testing the serving stack. A fault point is a call site —
// faultpoint.Hit("registry.grow.publish") — that normally does nothing
// and costs one atomic load; when a point of that name is armed it
// injects a failure instead: return an error, sleep, or panic. Points
// are armed programmatically from tests (Arm / Reset) or, for
// whole-process chaos runs such as the CI chaos-smoke job, from the
// OIPA_FAULTPOINTS environment variable (ArmFromEnv).
//
// Spec grammar, per point:
//
//	error             return ErrInjected
//	panic             panic with an InjectedPanic value
//	delay:<duration>  sleep that long, then proceed normally
//
// A spec may carry a shot budget: "panic#1" fires once and disarms,
// "delay:50ms#3" fires three times. Without a budget the point fires on
// every hit until disarmed. The environment variable holds a
// comma-separated list of name=spec entries:
//
//	OIPA_FAULTPOINTS="registry.grow.publish=panic#1,serve.solve.pre=delay:250ms"
//
// Hit on a disarmed name — the production path — is a single atomic
// load of the global armed-point count; no map lookup, no lock.
package faultpoint

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error an "error"-mode point returns, wrapped with
// the point's name.
var ErrInjected = errors.New("faultpoint: injected error")

// InjectedPanic is the value a "panic"-mode point panics with, so chaos
// tests can distinguish injected panics from genuine ones in recover().
type InjectedPanic struct{ Name string }

func (p InjectedPanic) String() string { return "faultpoint: injected panic at " + p.Name }

const (
	modeError = iota
	modePanic
	modeDelay
)

type point struct {
	mode      int
	delay     time.Duration
	remaining int64 // shots left; <0 = unlimited
}

var (
	armed  atomic.Int64 // number of armed points; 0 = fast path
	mu     sync.Mutex
	points map[string]*point
)

// Hit fires the named fault point if armed: it returns a non-nil error
// in error mode, sleeps in delay mode, and panics in panic mode. When
// the name is not armed (the production case) it returns nil after one
// atomic load.
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	p, ok := points[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	if p.remaining == 0 {
		mu.Unlock()
		return nil
	}
	if p.remaining > 0 {
		p.remaining--
		if p.remaining == 0 {
			delete(points, name)
			armed.Add(-1)
		}
	}
	mode, delay := p.mode, p.delay
	mu.Unlock()
	switch mode {
	case modePanic:
		panic(InjectedPanic{Name: name})
	case modeDelay:
		time.Sleep(delay)
		return nil
	default:
		return fmt.Errorf("%w at %s", ErrInjected, name)
	}
}

// Arm installs (or replaces) the named point with the given spec; see
// the package comment for the grammar.
func Arm(name, spec string) error {
	p, err := parseSpec(spec)
	if err != nil {
		return fmt.Errorf("faultpoint: %s: %w", name, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*point)
	}
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = p
	return nil
}

// Reset disarms every point. Tests that arm points must defer it.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int64(len(points)))
	points = nil
}

// EnvVar is the environment variable ArmFromEnv reads.
const EnvVar = "OIPA_FAULTPOINTS"

// ArmFromEnv arms every point in the spec string (conventionally the
// value of OIPA_FAULTPOINTS; an empty string arms nothing) and returns
// the names armed, in spec order.
func ArmFromEnv(env string) ([]string, error) {
	env = strings.TrimSpace(env)
	if env == "" {
		return nil, nil
	}
	var names []string
	for _, entry := range strings.Split(env, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, spec, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return names, fmt.Errorf("faultpoint: bad entry %q (want name=spec)", entry)
		}
		if err := Arm(name, spec); err != nil {
			return names, err
		}
		names = append(names, name)
	}
	return names, nil
}

func parseSpec(spec string) (*point, error) {
	spec = strings.TrimSpace(spec)
	p := &point{remaining: -1}
	if base, shots, ok := strings.Cut(spec, "#"); ok {
		n, err := strconv.Atoi(shots)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad shot budget %q", shots)
		}
		p.remaining = int64(n)
		spec = base
	}
	switch {
	case spec == "error":
		p.mode = modeError
	case spec == "panic":
		p.mode = modePanic
	case strings.HasPrefix(spec, "delay:"):
		d, err := time.ParseDuration(strings.TrimPrefix(spec, "delay:"))
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad delay %q", spec)
		}
		p.mode, p.delay = modeDelay, d
	default:
		return nil, fmt.Errorf("unknown spec %q (want error | panic | delay:<dur>)", spec)
	}
	return p, nil
}
