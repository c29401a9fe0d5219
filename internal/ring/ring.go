// Package ring is the consistent-hash ring that places (engine, GPU) keys
// on the cluster's members. Every owner
// contributes 64 virtual points hashed from its label, a key belongs to the
// first point at or clockwise of its own hash, and adding or removing an
// owner moves only the keys that owner gains or loses.
package ring

import (
	"sort"
	"strconv"
)

// replicas is how many virtual points each owner contributes.
const replicas = 64

// Hash is FNV-1a finished with the MurmurHash3 avalanche mix. Labels differ
// in a character or two ("member-a:1", "member-a:2"), and raw FNV clusters
// such strings: over labels "shard-1" and "shard-2" one owns 85% of the
// ring. Every cluster member must use the identical function or steering
// mis-routes.
func Hash(s string) uint64 {
	x := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= 1099511628211
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

type point struct {
	hash  uint64
	owner int
}

// Ring maps keys to owners, named by their index in New's labels. It is
// immutable, so safe for concurrent use.
type Ring struct {
	points []point // sorted by hash
}

// New places 64 points per owner, at the hashes of "<label>-0" through
// "<label>-63".
func New(labels []string) *Ring {
	r := &Ring{points: make([]point, 0, len(labels)*replicas)}
	for owner, label := range labels {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, point{Hash(label + "-" + strconv.Itoa(v)), owner})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Owner returns the owner of key, or -1 on an empty ring.
func (r *Ring) Owner(key string) int {
	primary, _ := r.Owners(key)
	return primary
}

// Owners returns the owner of key and the replica: the owner of the next
// point clockwise that belongs to a different owner. Either is -1 when the
// ring has no such owner.
func (r *Ring) Owners(key string) (primary, replica int) {
	if len(r.points) == 0 {
		return -1, -1
	}
	h := Hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	primary = r.points[i%len(r.points)].owner // i == len wraps: the ring is circular
	for j := 1; j < len(r.points); j++ {
		if o := r.points[(i+j)%len(r.points)].owner; o != primary {
			return primary, o
		}
	}
	return primary, -1
}
