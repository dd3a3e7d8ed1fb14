package main

import (
	"fmt"
	"math"

	"qvr/internal/foveation"
)

// areaRelBound is the relative error the benchmark allows between
// foveation.Display.AreaFraction (a 128-strip midpoint rule) and the
// closed-form area below. The strip rule's worst case on the
// benchmark's inputs is about 2.2e-4; the bound leaves room above it
// without letting a wrong integrand through.
const areaRelBound = 1e-3

// discRectArea is the exact area of the disc of radius r centred at
// (cx, cy) intersected with the rectangle [x0, x1] x [y0, y1], by
// inclusion-exclusion over the disc's lower-left quadrant areas.
func discRectArea(r, cx, cy, x0, x1, y0, y1 float64) float64 {
	if r <= 0 || x1 <= x0 || y1 <= y0 {
		return 0
	}
	a := lowerLeft(r, x1-cx, y1-cy) - lowerLeft(r, x0-cx, y1-cy) -
		lowerLeft(r, x1-cx, y0-cy) + lowerLeft(r, x0-cx, y0-cy)
	return math.Max(a, 0)
}

// lowerLeft is the area of the origin-centred disc of radius r where
// u <= x and v <= y.
func lowerLeft(r, x, y float64) float64 {
	if x <= -r || y <= -r {
		return 0
	}
	xe := math.Min(x, r)
	if y >= r {
		return 2 * chordIntegral(r, -r, xe)
	}
	// Below the line v = y, the column at u holds the chord part
	// v in [-s(u), min(y, s(u))], s(u) = sqrt(r^2 - u^2); the line cuts
	// the circle at u = +-w.
	w := math.Sqrt(r*r - y*y)
	lo, hi := -w, math.Min(xe, w)
	if y >= 0 {
		// Full columns 2s(u) everywhere, minus the cap s(u) - y above
		// the line inside [-w, w].
		a := 2 * chordIntegral(r, -r, xe)
		if hi > lo {
			a -= chordIntegral(r, lo, hi) - y*(hi-lo)
		}
		return a
	}
	// y < 0: only the columns inside [-w, w] reach above -s(u), each
	// holding s(u) + y.
	if hi <= lo {
		return 0
	}
	return chordIntegral(r, lo, hi) + y*(hi-lo)
}

// chordIntegral is the integral of sqrt(r^2 - u^2) over [a, b], a <= b
// within [-r, r].
func chordIntegral(r, a, b float64) float64 {
	if b <= a {
		return 0
	}
	return halfChordPrimitive(r, b) - halfChordPrimitive(r, a)
}

func halfChordPrimitive(r, u float64) float64 {
	u = math.Max(-r, math.Min(r, u))
	return (u*math.Sqrt(r*r-u*u) + r*r*math.Asin(u/r)) / 2
}

// areaFractionRef is the closed-form counterpart of
// Display.AreaFraction.
func areaFractionRef(d foveation.Display, e1, gx, gy float64) float64 {
	hw, hv := d.FovH/2, d.FovV/2
	return discRectArea(e1, gx, gy, -hw, hw, -hv, hv) / (d.FovH * d.FovV)
}

// foveaPoint is one AreaFraction input drawn from a workload: the
// display of a session's app, a fovea radius and a gaze.
type foveaPoint struct {
	disp       foveation.Display
	e1, gx, gy float64
}

// checkAreas compares AreaFraction with the closed form on every
// point and returns the worst relative error, or an error naming the
// first point past areaRelBound.
func checkAreas(pts []foveaPoint) (float64, error) {
	worst := 0.0
	for _, p := range pts {
		got := p.disp.AreaFraction(p.e1, p.gx, p.gy)
		want := areaFractionRef(p.disp, p.e1, p.gx, p.gy)
		rel := math.Abs(got-want) / want
		if !(rel <= areaRelBound) {
			return rel, fmt.Errorf("AreaFraction(%g, %g, %g) on %dx%d = %.9g, closed form %.9g (relative error %.3g > %g)",
				p.e1, p.gx, p.gy, p.disp.Width, p.disp.Height, got, want, rel, areaRelBound)
		}
		worst = math.Max(worst, rel)
	}
	return worst, nil
}
