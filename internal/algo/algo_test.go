package algo

import (
	"context"
	"testing"

	"busytime/internal/core"
)

func stub(name string) Algorithm {
	return Algorithm{
		Name:        name,
		Description: "stub",
		Run: func(_ context.Context, in *core.Instance, sc *core.Scratch) (*core.Schedule, error) {
			return sc.NewSchedule(in), nil
		},
	}
}

func TestRegisterLookupAll(t *testing.T) {
	Register(stub("zz-test-b"))
	Register(stub("zz-test-a"))
	a, ok := Lookup("zz-test-a")
	if !ok || a.Name != "zz-test-a" {
		t.Fatalf("Lookup failed: %+v %v", a, ok)
	}
	if _, ok := Lookup("zz-missing"); ok {
		t.Error("Lookup found unregistered algorithm")
	}
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("All() not sorted: %q ≥ %q", all[i-1].Name, all[i].Name)
		}
	}
	found := 0
	for _, x := range all {
		if x.Name == "zz-test-a" || x.Name == "zz-test-b" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("All() missing registered stubs (found %d)", found)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(stub("zz-dup"))
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register(stub("zz-dup"))
}
