package registrytest

import (
	"context"
	"testing"

	"busytime/internal/core"
	"busytime/internal/generator"
)

// BenchmarkRegistry times every registered algorithm's Run on one instance
// per generator family, sized so that capacity probes dominate. Sub-benchmarks
// are named algorithm/family and skip inputs the algorithm rejects (class
// preconditions, size limits). firstfit+ls and portfolio take seconds per
// run at these sizes; select the others with -bench when comparing builds.
func BenchmarkRegistry(b *testing.B) {
	gen := generator.General(7, 1000, 4, 1000, 30)
	inputs := []struct {
		name string
		in   *core.Instance
	}{
		{"general", gen},
		{"proper", generator.Proper(7, 1000, 4, 1000, 30)},
		{"clique", generator.Clique(7, 300, 4, 50, 40)},
		{"bounded", generator.BoundedLength(7, 1000, 4, 100, 8)},
		{"laminar", generator.Laminar(7, 3, 40, 3, 5, 50)},
		{"demands", generator.WithDemands(gen, 8, 3)},
	}
	for _, a := range all(b) {
		a := a
		for _, c := range inputs {
			in := c.in
			b.Run(a.Name+"/"+c.name, func(b *testing.B) {
				for b.Loop() {
					if _, err := a.Run(context.Background(), in, new(core.Scratch)); err != nil {
						b.Skip(err)
					}
				}
			})
		}
	}
}
