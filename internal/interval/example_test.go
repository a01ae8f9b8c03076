package interval_test

import (
	"fmt"

	"busytime/internal/interval"
)

func ExampleSet_Span() {
	s := interval.Set{
		interval.New(0, 2),
		interval.New(1, 3),
		interval.New(5, 6),
	}
	fmt.Println(s.TotalLen(), s.Span())
	// Output: 5 4
}

func ExampleSet_MaxDepth() {
	// Closed semantics: touching intervals overlap at the shared point.
	s := interval.Set{interval.New(0, 1), interval.New(1, 2)}
	fmt.Println(s.MaxDepth())
	// Output: 2
}

func ExampleSet_IntegrateDepth() {
	s := interval.Set{interval.New(0, 2), interval.New(1, 3)}
	// Fractional machine requirement with g = 2: ⌈depth/2⌉ integrated.
	lb := s.IntegrateDepth(func(d int) float64 {
		return float64((d + 1) / 2)
	})
	fmt.Println(lb)
	// Output: 3
}
