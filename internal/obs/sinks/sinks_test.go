package sinks

import (
	"testing"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/signal"
)

// installed reports whether exactly s's registry, log and tap are the
// installed ones.
func installed(s Sinks) bool {
	return obs.Active() == s.Registry && event.Active() == s.Events && signal.Active() == s.Tap
}

func TestInstallRestoresLIFO(t *testing.T) {
	if !installed(Sinks{}) {
		t.Fatal("sinks installed before the test")
	}
	outer := Sinks{Registry: obs.NewRegistry(), Events: event.New(0), Tap: &signal.Tap{}}
	restoreOuter := Install(outer)
	if !installed(outer) {
		t.Fatal("Install did not install every store")
	}
	inner := Sinks{Registry: obs.NewRegistry()}
	restoreInner := Install(inner)
	if !installed(inner) {
		t.Fatal("a nested Install must replace every store, nil fields included")
	}
	restoreInner()
	if !installed(outer) {
		t.Fatal("restore did not put the outer sinks back")
	}
	restoreOuter()
	if !installed(Sinks{}) {
		t.Fatal("the last restore left sinks installed")
	}
}
