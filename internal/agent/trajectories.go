package agent

import (
	"math"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// Trajectory generators for the Moving Client variant. Every generator
// produces a path of T agent positions whose per-step displacement never
// exceeds the given speed limit, starting from the provided origin. They
// model the motivating scenarios of the paper: helpers in a disaster area
// (random walk), vehicles on a route (convoy/commuter), and surveillance
// drones (patrol).

// RandomWalk returns a path that takes a uniformly random direction each
// step with speed drawn uniformly from [0, speed].
func RandomWalk(r *xrand.Rand, origin geom.Point, T int, speed float64) []geom.Point {
	dir := make(geom.Point, origin.Dim())
	path := make([]geom.Point, T)
	cur := origin.Clone()
	for t := 0; t < T; t++ {
		r.UnitInto(dir)
		cur = cur.Add(dir.Scale(r.Range(0, speed)))
		path[t] = cur.Clone()
	}
	return path
}

// Drift returns a path moving in a fixed random direction at full speed
// with per-step Gaussian jitter of relative magnitude jitter in [0, 1).
// It models a convoy on a highway.
func Drift(r *xrand.Rand, origin geom.Point, T int, speed, jitter float64) []geom.Point {
	heading := make(geom.Point, origin.Dim())
	r.UnitInto(heading)
	noise := make(geom.Point, origin.Dim())
	path := make([]geom.Point, T)
	cur := origin.Clone()
	for t := 0; t < T; t++ {
		step := heading.Scale(speed * (1 - jitter))
		r.UnitInto(noise)
		next := cur.Add(step).Add(noise.Scale(speed * jitter * r.Float64()))
		// Clamp to the speed limit (jitter could overshoot by rounding).
		cur = geom.MoveToward(cur, next, speed)
		path[t] = cur.Clone()
	}
	return path
}

// Commuter returns a path oscillating between origin and a target at full
// speed, modeling a vehicle shuttling between two sites.
func Commuter(origin, target geom.Point, T int, speed float64) []geom.Point {
	path := make([]geom.Point, T)
	cur := origin.Clone()
	dest := target.Clone()
	for t := 0; t < T; t++ {
		cur = geom.MoveToward(cur, dest, speed)
		if geom.Dist(cur, dest) == 0 {
			if dest.Equal(target) {
				dest = origin.Clone()
			} else {
				dest = target.Clone()
			}
		}
		path[t] = cur.Clone()
	}
	return path
}

// Patrol returns a path circling the given center with the given radius at
// an angular velocity such that the chord per step equals speed (or slower
// when the circle is small). It requires dimension >= 2 and moves in the
// first two coordinates. The agent first walks from the origin onto the
// circle at full speed.
func Patrol(origin, center geom.Point, radius float64, T int, speed float64) []geom.Point {
	if origin.Dim() < 2 {
		panic("agent: Patrol requires dimension >= 2")
	}
	path := make([]geom.Point, T)
	cur := origin.Clone()
	// Angular step so the chord length is at most speed.
	dTheta := 2 * math.Asin(math.Min(1, speed/(2*math.Max(radius, 1e-12))))
	theta := math.Atan2(cur[1]-center[1], cur[0]-center[0])
	onCircle := false
	for t := 0; t < T; t++ {
		if !onCircle {
			entry := center.Clone()
			entry[0] += radius * math.Cos(theta)
			entry[1] += radius * math.Sin(theta)
			cur = geom.MoveToward(cur, entry, speed)
			if geom.Dist(cur, entry) == 0 {
				onCircle = true
			}
		} else {
			theta += dTheta
			next := center.Clone()
			next[0] += radius * math.Cos(theta)
			next[1] += radius * math.Sin(theta)
			// The chord is ≤ speed by construction; MoveToward guards
			// against rounding.
			cur = geom.MoveToward(cur, next, speed)
		}
		path[t] = cur.Clone()
	}
	return path
}
