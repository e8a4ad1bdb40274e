package main

import (
	"math"
	"testing"

	"aida/internal/kb"
)

func TestAccuracyAlignment(t *testing.T) {
	gold := []goldMention{
		{"Page", 1}, // recognition misses it
		{"Plant", 2},
		{"Nowhere", kb.NoEntity},
		{"Bonham", 3},
		{"Page", 1},
	}
	cases := []struct {
		name          string
		anns          []annotated
		correct, want int
	}{
		{"first gold surface not recognized", []annotated{{"Plant", 2}, {"Nowhere", 7}, {"Bonham", 3}, {"Page", 1}}, 3, 4},
		{"wrong span in the middle", []annotated{{"Page", 1}, {"Robert Plant", 2}, {"Bonham", 3}, {"Page", 1}}, 3, 4},
		{"wrong entity", []annotated{{"Page", 1}, {"Plant", 9}, {"Bonham", 3}, {"Page", 1}}, 3, 4},
		{"out-of-KB mention linked", []annotated{{"Page", 1}, {"Plant", 2}, {"Nowhere", 3}, {"Bonham", 3}, {"Page", 1}}, 4, 4},
		{"nothing recognized", nil, 0, 4},
		{"only the repeated surface recognized", []annotated{{"Page", 1}}, 1, 4},
		{"spurious annotations", []annotated{{"Jones", 4}, {"Page", 1}, {"Jones", 4}, {"Plant", 2}, {"Bonham", 3}, {"Page", 1}}, 4, 4},
	}
	for _, c := range cases {
		var a accuracy
		a.add(gold, c.anns)
		if a.correct != c.correct || a.total != c.want {
			t.Errorf("%s: got %d/%d correct, want %d/%d", c.name, a.correct, a.total, c.correct, c.want)
		}
	}
}

func TestHDQuantile(t *testing.T) {
	vs := make([]float64, 300)
	for i := range vs {
		vs[len(vs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct{ q, want, tol float64 }{
		{0.5, 150.5, 1e-6}, // symmetric weights: the mean of the middle
		{0.99, 0.99 * 301, 0.5},
	} {
		if got := hdQuantile(vs, c.q); math.Abs(got-c.want) > c.tol {
			t.Errorf("hdQuantile(1..300, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := hdQuantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("hdQuantile of one value = %g, want 7", got)
	}
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},
		{2, 1, 0.5, 0.25},
		{298, 3, 1, 1},
	} {
		if got := betaInc(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("betaInc(%g, %g, %g) = %g, want %g", c.a, c.b, c.x, got, c.want)
		}
	}
}
