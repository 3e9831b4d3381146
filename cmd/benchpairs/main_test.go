package main

import "testing"

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 10}
	for _, tt := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 10}, {0.875, 7}} {
		if got := quantile(sorted, tt.q); got != tt.want {
			t.Errorf("quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := quantile([]float64{7}, 0.25); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if got := summary([]float64{3, 1, 2}); got != "2 [1.5, 2.5]" {
		t.Errorf("summary = %q", got)
	}
}
