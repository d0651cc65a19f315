package faultpoint

import (
	"errors"
	"testing"
	"time"
)

func TestDisarmedHitIsNil(t *testing.T) {
	defer Reset()
	if err := Hit("nope"); err != nil {
		t.Fatalf("disarmed hit returned %v", err)
	}
	// Another armed point must not affect unrelated names.
	if err := Arm("other", "error"); err != nil {
		t.Fatal(err)
	}
	if err := Hit("nope"); err != nil {
		t.Fatalf("unrelated hit returned %v", err)
	}
}

func TestErrorMode(t *testing.T) {
	defer Reset()
	if err := Arm("p", "error"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := Hit("p"); !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: %v", i, err)
		}
	}
	Reset()
	if err := Hit("p"); err != nil {
		t.Fatalf("disarmed hit returned %v", err)
	}
}

func TestPanicModeAndShotBudget(t *testing.T) {
	defer Reset()
	if err := Arm("p", "panic#1"); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			p, ok := recover().(InjectedPanic)
			if !ok || p.Name != "p" {
				t.Fatalf("recover() = %v", p)
			}
		}()
		_ = Hit("p")
		t.Fatal("armed panic point did not panic")
	}()
	// The single shot is spent: the point disarmed itself.
	if err := Hit("p"); err != nil {
		t.Fatalf("spent point returned %v", err)
	}
	if got := armed.Load(); got != 0 {
		t.Fatalf("armed count %d after the budget drained", got)
	}
}

func TestDelayMode(t *testing.T) {
	defer Reset()
	if err := Arm("p", "delay:20ms#2"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Hit("p"); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 20*time.Millisecond {
		t.Fatalf("delay hit returned after %v", e)
	}
}

func TestArmFromEnv(t *testing.T) {
	defer Reset()
	names, err := ArmFromEnv(" a=error#2, b=delay:1ms ,c=panic ")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("names = %v", names)
	}
	if err := Hit("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("a: %v", err)
	}
	if err := Hit("b"); err != nil {
		t.Fatalf("b: %v", err)
	}
	if _, err := ArmFromEnv("broken"); err == nil {
		t.Fatal("bad entry accepted")
	}
	if _, err := ArmFromEnv("x=warp"); err == nil {
		t.Fatal("bad spec accepted")
	}
	if _, err := ArmFromEnv("x=error#0"); err == nil {
		t.Fatal("zero shot budget accepted")
	}
	if _, err := ArmFromEnv(""); err != nil {
		t.Fatalf("empty env: %v", err)
	}
}
