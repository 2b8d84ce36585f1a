package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := samples{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	cases := []struct {
		s     samples
		p     float64
		want  float64
		wantN int
	}{
		{ten, 50, 5, 10},
		{ten, 90, 9, 10},
		{ten, 100, 10, 10},
		{ten, 1, 1, 10},
		{samples{4}, 90, 4, 1},
		{samples{1, 2, 3}, 50, 2, 3},
		{samples{1, 2, 3, 4}, 50, 2, 4}, // the 2nd smallest, a measured value
		{samples{1, 2, 3, 4}, 90, 4, 4}, // ceil(3.6) = 4th
		{samples{1, 2, 3, 4}, 75, 3, 4}, // ceil(3.0) = 3rd
		{samples{}, 50, 0, 0},
	}
	for _, c := range cases {
		got, n := c.s.percentile(c.p)
		if got != c.want || n != c.wantN {
			t.Errorf("percentile(%v, %g) = %g, n=%d; want %g, n=%d", c.s, c.p, got, n, c.want, c.wantN)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

func TestPercentileCountsFailuresAsMissingEveryLimit(t *testing.T) {
	s := samples{1, 2, 3, 4, 5, 6, 7, 8, math.Inf(1), math.Inf(1)}
	if p50, _ := s.percentile(50); p50 != 5 {
		t.Errorf("p50 = %g, want 5", p50)
	}
	if p90, _ := s.percentile(90); !math.IsInf(p90, 1) {
		t.Errorf("p90 = %g, want +Inf when a tenth of the jobs failed", p90)
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := (samples{3, 1, 2}).median(); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := (samples{4, 1, 3, 2}).median(); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if m := (samples{}).median(); m != 0 {
		t.Errorf("empty median = %g", m)
	}
	if m := (samples{1, 2, 6}).mean(); m != 3 {
		t.Errorf("mean = %g", m)
	}
}

func TestSetPercentilesReportsSampleCount(t *testing.T) {
	r := &report{}
	r.setPercentiles("warm", samples{5, 1, 4, 2, 3})
	if v := r.metrics["warm_p50_ms"]; v.V != 3 || v.N != 5 || v.Unit != "ms" {
		t.Errorf("warm_p50_ms = %+v", v)
	}
	if v := r.metrics["warm_p90_ms"]; v.V != 5 || v.N != 5 {
		t.Errorf("warm_p90_ms = %+v", v)
	}
}
