package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecBasics(t *testing.T) {
	v := Vec{3, 4}
	if v.Norm() != 5 {
		t.Errorf("norm: %g", v.Norm())
	}
	if got := v.Add(Vec{1, 1}); got != (Vec{4, 5}) {
		t.Errorf("add: %v", got)
	}
	if got := v.Sub(Vec{1, 1}); got != (Vec{2, 3}) {
		t.Errorf("sub: %v", got)
	}
	if got := v.Scale(2); got != (Vec{6, 8}) {
		t.Errorf("scale: %v", got)
	}
	if got := v.Dot(Vec{-4, 3}); got != 0 {
		t.Errorf("dot orthogonal: %g", got)
	}
	if got := (Vec{1, 0}).Cross(Vec{0, 1}); got != 1 {
		t.Errorf("cross: %g", got)
	}
}

func TestRotationPreservesNorm(t *testing.T) {
	f := func(x, y, theta float64) bool {
		x = math.Mod(x, 1e6)
		y = math.Mod(y, 1e6)
		theta = math.Mod(theta, 100)
		v := Vec{x, y}
		return approx(v.Rotate(theta).Norm(), v.Norm(), 1e-6*(1+v.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotateComposition(t *testing.T) {
	v := Vec{1, 2}
	got := v.Rotate(0.3).Rotate(0.7)
	want := v.Rotate(1.0)
	if !approx(got.X, want.X, 1e-12) || !approx(got.Y, want.Y, 1e-12) {
		t.Errorf("rotation composition: %v vs %v", got, want)
	}
}

func TestFromPolarRoundTrip(t *testing.T) {
	f := func(r, theta float64) bool {
		r = 0.1 + math.Mod(math.Abs(r), 1e3)
		theta = math.Mod(theta, math.Pi) // keep away from the ±π seam
		v := FromPolar(r, theta)
		return approx(v.Norm(), r, 1e-9*r) && approx(WrapAngle(v.Angle()-theta), 0, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-3 * math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		if got := WrapAngle(c.in); !approx(got, c.want, 1e-12) {
			t.Errorf("WrapAngle(%g) = %g, want %g", c.in, got, c.want)
		}
	}
	f := func(a float64) bool {
		a = math.Mod(a, 1e4)
		w := WrapAngle(a)
		return w > -math.Pi-1e-12 && w <= math.Pi+1e-12 &&
			approx(math.Sin(w), math.Sin(a), 1e-6) && approx(math.Cos(w), math.Cos(a), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoseBearing(t *testing.T) {
	// A reader at origin facing +X sees a point on +X at bearing 0 and a
	// point on +Y at +90°.
	o := Pose{Pos: Vec{0, 0}, Heading: 0}
	if b := o.BearingTo(Vec{5, 0}); !approx(b, 0, 1e-12) {
		t.Errorf("boresight bearing: %g", b)
	}
	if b := o.BearingTo(Vec{0, 5}); !approx(b, math.Pi/2, 1e-12) {
		t.Errorf("left bearing: %g", b)
	}
	// Rotating the pose rotates bearings the other way.
	o.Heading = math.Pi / 4
	if b := o.BearingTo(Vec{5, 0}); !approx(b, -math.Pi/4, 1e-12) {
		t.Errorf("rotated bearing: %g", b)
	}
}

func TestMirror(t *testing.T) {
	wall := Segment{A: Vec{0, 1}, B: Vec{10, 1}} // horizontal wall at y=1
	img := wall.Mirror(Vec{3, 0})
	if !approx(img.X, 3, 1e-12) || !approx(img.Y, 2, 1e-12) {
		t.Errorf("mirror image: %v", img)
	}
	// Mirroring twice is the identity.
	f := func(x, y float64) bool {
		x = math.Mod(x, 100)
		y = math.Mod(y, 100)
		p := Vec{x, y}
		q := wall.Mirror(wall.Mirror(p))
		return approx(p.X, q.X, 1e-9) && approx(p.Y, q.Y, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntersect(t *testing.T) {
	s := Segment{A: Vec{0, 0}, B: Vec{0, 10}}
	pt, ok := s.Intersect(Vec{-5, 5}, Vec{5, 5})
	if !ok || !approx(pt.X, 0, 1e-12) || !approx(pt.Y, 5, 1e-12) {
		t.Errorf("intersect: %v %v", pt, ok)
	}
	if _, ok := s.Intersect(Vec{-5, 11}, Vec{5, 11}); ok {
		t.Error("should miss above the segment")
	}
	if _, ok := s.Intersect(Vec{1, 0}, Vec{1, 10}); ok {
		t.Error("parallel lines should not intersect")
	}
}

func TestReflectionPointEqualAngles(t *testing.T) {
	// Specular reflection: angle of incidence equals angle of reflection.
	wall := Segment{A: Vec{-100, 2}, B: Vec{100, 2}}
	src := Vec{-3, 0}
	dst := Vec{5, 0}
	pt, ok := wall.ReflectionPoint(src, dst)
	if !ok {
		t.Fatal("no reflection point")
	}
	if !approx(pt.Y, 2, 1e-9) {
		t.Fatalf("reflection point off the wall: %v", pt)
	}
	inc := pt.Sub(src).Angle()
	out := dst.Sub(pt).Angle()
	// Angles measured from the wall normal must be equal and opposite.
	if !approx(inc, -out+0, 1e-9) && !approx(WrapAngle(inc+out), 0, 1e-9) {
		t.Errorf("not specular: inc %g out %g", inc, out)
	}
	// Path length via the image equals direct distance to the image.
	l, _ := wall.PathLengthVia(src, dst)
	img := wall.Mirror(src)
	if !approx(l, img.Dist(dst), 1e-9) {
		t.Errorf("image path length mismatch: %g vs %g", l, img.Dist(dst))
	}
}

func TestBlocks(t *testing.T) {
	wall := Segment{A: Vec{2, -1}, B: Vec{2, 1}}
	if !wall.Blocks(Vec{0, 0}, Vec{4, 0}) {
		t.Error("wall should block the straight path")
	}
	if wall.Blocks(Vec{0, 0}, Vec{1, 0}) {
		t.Error("short path should not be blocked")
	}
	if wall.Blocks(Vec{0, 5}, Vec{4, 5}) {
		t.Error("path above the wall should not be blocked")
	}
}

func TestUnitZeroVector(t *testing.T) {
	if got := (Vec{}).Unit(); got != (Vec{}) {
		t.Errorf("unit of zero vector: %v", got)
	}
	v := Vec{3, -7}.Unit()
	if !approx(v.Norm(), 1, 1e-12) {
		t.Errorf("unit norm: %g", v.Norm())
	}
}

func TestPoseForwardAndSegmentLength(t *testing.T) {
	p := Pose{Heading: math.Pi / 2}
	f := p.Forward()
	if math.Abs(f.X) > 1e-12 || math.Abs(f.Y-1) > 1e-12 {
		t.Fatalf("Forward at π/2 = %+v", f)
	}
	s := Segment{A: Vec{0, 0}, B: Vec{3, 4}}
	if l := s.Length(); math.Abs(l-5) > 1e-12 {
		t.Fatalf("Length = %g", l)
	}
}
