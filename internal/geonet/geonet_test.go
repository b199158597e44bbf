package geonet

import (
	"testing"
	"time"
)

func TestTopologyLinkLookup(t *testing.T) {
	topo := DefaultHospitalTopology()
	if _, err := topo.Link("snuh-seoul"); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Link("nowhere"); err == nil {
		t.Fatal("unknown region must error")
	}
}

// The synthetic compute profile is deterministic under its seed,
// bounded by the documented spread, and plants genuine stragglers.
func TestSyntheticClinicCompute(t *testing.T) {
	const n = 100
	base := 10 * time.Millisecond
	a := SyntheticClinicCompute(n, 7, base, 0.1)
	b := SyntheticClinicCompute(n, 7, base, 0.1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clinic %d: %v vs %v under the same seed", i, a[i], b[i])
		}
	}
	stragglers := 0
	for i, d := range a {
		if d == 8*base {
			stragglers++
			continue
		}
		if d < 3*base/4 || d > 3*base/2 {
			t.Fatalf("clinic %d compute %v outside the healthy 0.75×–1.5× spread", i, d)
		}
	}
	if stragglers == 0 || stragglers > n/5 {
		t.Fatalf("%d stragglers out of %d with fraction 0.1", stragglers, n)
	}
	none := SyntheticClinicCompute(n, 7, base, 0)
	for i, d := range none {
		if d == 8*base {
			t.Fatalf("clinic %d is a straggler with fraction 0", i)
		}
	}
	if c := SyntheticClinicCompute(n, 8, base, 0.1); func() bool {
		for i := range a {
			if a[i] != c[i] {
				return false
			}
		}
		return true
	}() {
		t.Fatal("different seeds produced identical profiles")
	}
	assertPanics(t, "zero clinics", func() { SyntheticClinicCompute(0, 1, base, 0) })
	assertPanics(t, "negative base", func() { SyntheticClinicCompute(1, 1, -base, 0) })
	assertPanics(t, "fraction out of range", func() { SyntheticClinicCompute(1, 1, base, 1.5) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}
