package sketch

import (
	"math"
	"testing"
)

func TestCMSAbsError(t *testing.T) {
	cases := []struct {
		width uint32
		n     uint64
		want  float64
	}{
		{256, 0, 0},
		{256, 1000, math.E * 1000 / 256},
		{4096, 1 << 20, math.E * float64(1<<20) / 4096},
	}
	for _, c := range cases {
		if got := CMSAbsError(c.width, c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("CMSAbsError(%d, %d) = %g, want %g", c.width, c.n, got, c.want)
		}
	}
	if got := CMSAbsError(0, 10); !math.IsInf(got, 1) {
		t.Errorf("CMSAbsError(0, 10) = %g, want +Inf", got)
	}
}

func TestCMSWidthForInvertsAbsError(t *testing.T) {
	cases := []struct {
		n      uint64
		maxAbs float64
		want   uint32
	}{
		{0, 10, 1},
		{1000, 0, 1},              // no budget: degenerate floor
		{1000, 1e9, 1},            // huge budget: narrowest width
		{2000, 12.5, 512},         // e*2000/12.5 = 435 -> 512
		{12000, 12.5, 4096},       // e*12000/12.5 = 2609 -> 4096
		{1 << 40, 0.001, 1 << 30}, // clamped at the pow2 ceiling
	}
	for _, c := range cases {
		if got := CMSWidthFor(c.n, c.maxAbs); got != c.want {
			t.Errorf("CMSWidthFor(%d, %g) = %d, want %d", c.n, c.maxAbs, got, c.want)
		}
	}
	// The returned width actually meets the budget (except at the clamps).
	for _, c := range cases[3:5] {
		w := CMSWidthFor(c.n, c.maxAbs)
		if CMSAbsError(w, c.n) > c.maxAbs {
			t.Errorf("CMSWidthFor(%d, %g) = %d does not meet the budget: bound %g",
				c.n, c.maxAbs, w, CMSAbsError(w, c.n))
		}
		if w > 1 && CMSAbsError(w/2, c.n) <= c.maxAbs {
			t.Errorf("CMSWidthFor(%d, %g) = %d is not minimal: %d already meets it",
				c.n, c.maxAbs, w, w/2)
		}
	}
}

func TestBloomFillAndFPP(t *testing.T) {
	if got := BloomRowFill(64, 256); got != 0.25 {
		t.Errorf("BloomRowFill(64, 256) = %g, want 0.25", got)
	}
	if got := BloomRowFill(300, 256); got != 1 {
		t.Errorf("BloomRowFill over-full = %g, want clamped 1", got)
	}
	if got := BloomRowFill(1, 0); got != 1 {
		t.Errorf("BloomRowFill zero width = %g, want 1", got)
	}
	if got := BloomFPPFromFills(nil); got != 0 {
		t.Errorf("BloomFPPFromFills(nil) = %g, want 0", got)
	}
	if got, want := BloomFPPFromFills([]float64{0.5, 0.25}), 0.125; math.Abs(got-want) > 1e-12 {
		t.Errorf("BloomFPPFromFills = %g, want %g", got, want)
	}
}
