package interval

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// checkColoring reports why classes is not an optimal coloring of s: every
// index in exactly one class, no two members of a class overlapping (closed
// semantics), and exactly MaxDepth classes.
func checkColoring(s Set, classes [][]int) error {
	seen := make([]bool, len(s))
	for c, class := range classes {
		for i, u := range class {
			if seen[u] {
				return fmt.Errorf("interval %d colored twice", u)
			}
			seen[u] = true
			for _, v := range class[i+1:] {
				if s[u].Overlaps(s[v]) {
					return fmt.Errorf("color %d holds overlapping %v and %v", c, s[u], s[v])
				}
			}
		}
	}
	for u, ok := range seen {
		if !ok {
			return fmt.Errorf("interval %d uncolored", u)
		}
	}
	if len(classes) != s.MaxDepth() {
		return fmt.Errorf("%d colors, want MaxDepth = %d", len(classes), s.MaxDepth())
	}
	return nil
}

func TestMinColoringOptimal(t *testing.T) {
	for _, tc := range []struct {
		s    Set
		want [][]int
	}{
		{nil, [][]int{}},
		{Set{New(0, 4), New(1, 5), New(2, 6), New(5, 9), New(6, 10)}, [][]int{{0, 3}, {1, 4}, {2}}},
		// [1,2] ends first, but [4,5] takes the smallest free color.
		{Set{New(0, 3), New(1, 2), New(4, 5)}, [][]int{{0, 2}, {1}}},
		// Touching intervals conflict.
		{Set{New(0, 1), New(1, 2), New(2, 3)}, [][]int{{0, 2}, {1}}},
	} {
		got := MinColoring(tc.s)
		if err := checkColoring(tc.s, got); err != nil {
			t.Errorf("MinColoring(%v): %v", tc.s, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("MinColoring(%v) = %v, want %v", tc.s, got, tc.want)
		}
	}
}

func TestColorClassesAreIndependent(t *testing.T) {
	s := Set{New(0, 3), New(1, 4), New(2, 5), New(4, 7), New(6, 9)}
	if err := checkColoring(s, MinColoring(s)); err != nil {
		t.Error(err)
	}
}

func TestQuickColoringProperAndOptimal(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		s := randomSet(rand.New(rand.NewSource(seed)), int(sz%40)+1)
		return checkColoring(s, MinColoring(s)) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMinColoring(b *testing.B) {
	s := randomSet(rand.New(rand.NewSource(1)), 2048)
	b.ReportAllocs()
	for b.Loop() {
		MinColoring(s)
	}
}
