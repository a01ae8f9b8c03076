package experiments

import (
	"fmt"
	"testing"
)

func TestAblationsRun(t *testing.T) {
	for _, e := range Ablations() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(Config{Trials: 5, Seed: 1, LargeN: 200})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(res.Metrics) == 0 {
				t.Error("no metrics")
			}
		})
	}
}

func TestA1LengthOrderCompetitive(t *testing.T) {
	res, err := A1Ordering(Config{Trials: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's order should not be dominated by random order on average.
	for _, g := range []int{2, 4} {
		paper := res.Metrics[fmt.Sprintf("g%d/length (paper)/mean", g)]
		random := res.Metrics[fmt.Sprintf("g%d/random/mean", g)]
		if paper > random*1.15 {
			t.Errorf("g=%d: paper order %v much worse than random %v", g, paper, random)
		}
	}
}

func TestA3NeverNegativeGain(t *testing.T) {
	res, err := A3LocalSearch(Config{Trials: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range res.Metrics {
		if v < -1e-9 {
			t.Errorf("%s = %v: local search made things worse", k, v)
		}
	}
}
