package firstfit

import (
	"testing"
	"testing/quick"

	"busytime/internal/generator"
)

func TestLinearMatchesTreeBacked(t *testing.T) {
	f := func(seed int64, nn, gg uint8) bool {
		in := generator.General(seed, int(nn%40)+1, int(gg%4)+1, 50, 15)
		a := Schedule(in)
		b := ScheduleLinear(in)
		if b.Verify() != nil {
			return false
		}
		if a.NumMachines() != b.NumMachines() {
			return false
		}
		for j := 0; j < in.N(); j++ {
			if a.MachineOf(j) != b.MachineOf(j) {
				return false
			}
		}
		return a.Cost() == b.Cost()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearWithDemands(t *testing.T) {
	base := generator.General(5, 30, 4, 40, 12)
	in := generator.WithDemands(base, 9, 4)
	a := Schedule(in)
	b := ScheduleLinear(in)
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
	if a.Cost() != b.Cost() {
		t.Errorf("costs differ: kernel %v vs linear %v", a.Cost(), b.Cost())
	}
}

func BenchmarkLinear1k(b *testing.B) {
	in := generator.General(7, 1000, 4, 500, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ScheduleLinear(in)
	}
}
