// Package geom provides the small amount of 2-D planar geometry the
// simulator needs: vectors, points, headings, angle arithmetic, and the
// image-method reflection used to construct non-line-of-sight rays.
//
// The scene lives in the horizontal plane (the plane the paper's reader
// steers its beam in); angles follow the antenna-array convention where
// 0 rad is array boresight and positive angles rotate counter-clockwise.
package geom

import "math"

// Vec is a 2-D vector (also used as a point).
type Vec struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns v − w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Dot returns the dot product v·w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the scalar (z-component) cross product v×w.
func (v Vec) Cross(w Vec) float64 { return v.X*w.Y - v.Y*w.X }

// Norm returns the Euclidean length of v.
func (v Vec) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the distance between points v and w.
func (v Vec) Dist(w Vec) float64 { return v.Sub(w).Norm() }

// Unit returns v normalized to length 1. The zero vector is returned
// unchanged.
func (v Vec) Unit() Vec {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Angle returns the angle of v measured from the +X axis, in (−π, π].
func (v Vec) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Rotate returns v rotated counter-clockwise by theta radians.
func (v Vec) Rotate(theta float64) Vec {
	c, s := math.Cos(theta), math.Sin(theta)
	return Vec{v.X*c - v.Y*s, v.X*s + v.Y*c}
}

// FromPolar returns the vector with the given length and angle from +X.
func FromPolar(r, theta float64) Vec {
	return Vec{r * math.Cos(theta), r * math.Sin(theta)}
}

// WrapAngle reduces an angle to (−π, π].
func WrapAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a > math.Pi {
		a -= 2 * math.Pi
	} else if a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// Pose is a position plus an orientation (the boresight heading of an
// antenna aperture, radians from +X).
type Pose struct {
	Pos     Vec
	Heading float64
}

// BearingTo returns the angle of arrival/departure of point p as seen in
// this pose's local frame: 0 means p lies on boresight, positive means p
// is counter-clockwise of boresight. This is the θ of paper Eq. 1.
func (o Pose) BearingTo(p Vec) float64 {
	return WrapAngle(p.Sub(o.Pos).Angle() - o.Heading)
}

// Forward returns the unit vector along the pose's boresight.
func (o Pose) Forward() Vec { return FromPolar(1, o.Heading) }

// Segment is a wall or reflector between two endpoints.
type Segment struct {
	A, B Vec
}

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Mirror returns the reflection of point p across the infinite line
// through the segment (the image-source location used for NLOS rays).
func (s Segment) Mirror(p Vec) Vec {
	d := s.B.Sub(s.A).Unit()
	ap := p.Sub(s.A)
	proj := d.Scale(ap.Dot(d))
	perp := ap.Sub(proj)
	return p.Sub(perp.Scale(2))
}

// Intersect returns the point where the segment from p to q crosses this
// segment, if any.
func (s Segment) Intersect(p, q Vec) (Vec, bool) {
	r := q.Sub(p)
	d := s.B.Sub(s.A)
	denom := r.Cross(d)
	if denom == 0 {
		return Vec{}, false // parallel
	}
	t := s.A.Sub(p).Cross(d) / denom
	u := s.A.Sub(p).Cross(r) / denom
	const eps = 1e-12
	if t < -eps || t > 1+eps || u < -eps || u > 1+eps {
		return Vec{}, false
	}
	return p.Add(r.Scale(t)), true
}

// ReflectionPoint returns the point on the reflector where a single-bounce
// ray from src to dst hits, and whether such a geometric bounce exists
// (i.e. the line from the image of src to dst crosses the segment).
func (s Segment) ReflectionPoint(src, dst Vec) (Vec, bool) {
	img := s.Mirror(src)
	return s.Intersect(img, dst)
}

// PathLengthVia returns the total length of the single-bounce path
// src → reflection point → dst, and whether the bounce exists.
func (s Segment) PathLengthVia(src, dst Vec) (float64, bool) {
	pt, ok := s.ReflectionPoint(src, dst)
	if !ok {
		return 0, false
	}
	return src.Dist(pt) + pt.Dist(dst), true
}

// Blocks reports whether this segment blocks the straight path from p to
// q (used for LOS blockage checks). Touching an endpoint counts as
// blocking.
func (s Segment) Blocks(p, q Vec) bool {
	_, ok := s.Intersect(p, q)
	return ok
}
