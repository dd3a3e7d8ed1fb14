package main

import (
	"math"
	"math/rand"
	"testing"

	"qvr/internal/foveation"
)

func TestDiscRectAreaKnownShapes(t *testing.T) {
	const r = 3.0
	disc := math.Pi * r * r
	for _, c := range []struct {
		name           string
		cx, cy         float64
		x0, x1, y0, y1 float64
		want           float64
	}{
		{"inside", 0, 0, -10, 10, -10, 10, disc},
		{"inside off-centre", 4, -2, -10, 10, -10, 10, disc},
		{"half at the right edge", 10, 0, -10, 10, -10, 10, disc / 2},
		{"half at the bottom edge", 1, -10, -10, 10, -10, 10, disc / 2},
		{"quarter at a corner", -10, 10, -10, 10, -10, 10, disc / 4},
		{"outside", 20, 0, -10, 10, -10, 10, 0},
		{"rectangle inside the disc", 0, 0, -1, 1, -2, 2, 8},
	} {
		got := discRectArea(r, c.cx, c.cy, c.x0, c.x1, c.y0, c.y1)
		if math.Abs(got-c.want) > 1e-12*math.Max(1, c.want) {
			t.Errorf("%s: area %.15g, want %.15g", c.name, got, c.want)
		}
	}
}

// TestDiscRectAreaMatchesQuadrature checks the closed form against a
// dense midpoint rule on random discs and rectangles.
func TestDiscRectAreaMatchesQuadrature(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		r := 0.5 + 10*rng.Float64()
		cx, cy := 20*rng.Float64()-10, 20*rng.Float64()-10
		x0, y0 := -8*rng.Float64(), -8*rng.Float64()
		x1, y1 := x0+12*rng.Float64()+0.1, y0+12*rng.Float64()+0.1
		got := discRectArea(r, cx, cy, x0, x1, y0, y1)
		want := stripArea(r, cx, cy, x0, x1, y0, y1, 20000)
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("disc r=%g at (%g,%g), rect [%g,%g]x[%g,%g]: closed form %.10g, quadrature %.10g",
				r, cx, cy, x0, x1, y0, y1, got, want)
		}
	}
}

func stripArea(r, cx, cy, x0, x1, y0, y1 float64, strips int) float64 {
	lo, hi := math.Max(cy-r, y0), math.Min(cy+r, y1)
	if hi <= lo {
		return 0
	}
	dy := (hi - lo) / float64(strips)
	a := 0.0
	for i := 0; i < strips; i++ {
		y := lo + (float64(i)+0.5)*dy
		h := r*r - (y-cy)*(y-cy)
		if h <= 0 {
			continue
		}
		w := math.Sqrt(h)
		if l, u := math.Max(cx-w, x0), math.Min(cx+w, x1); u > l {
			a += (u - l) * dy
		}
	}
	return a
}

func TestAreaFractionWithinBound(t *testing.T) {
	d := foveation.DefaultDisplay
	var pts []foveaPoint
	for e1 := foveation.MinE1; e1 <= foveation.MaxE1; e1 += 2.5 {
		for _, g := range [][2]float64{{0, 0}, {40, 30}, {-40, -30}, {25, -10}} {
			pts = append(pts, foveaPoint{disp: d, e1: e1, gx: g[0], gy: g[1]})
		}
	}
	worst, err := checkAreas(pts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("worst relative error %.3g (bound %g)", worst, areaRelBound)
}
