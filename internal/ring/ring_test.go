package ring

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestHashPinned pins Hash to the values the member ring has always used:
// members of a cluster running mixed versions must agree on every key.
func TestHashPinned(t *testing.T) {
	for s, want := range map[string]uint64{
		"":                        0xefd01f60ba992926,
		"neusight|H100":           0xea2c3e9a52ad5997,
		"member-10.0.0.1:8080-63": 0x4871f07e4bc52458,
	} {
		if got := Hash(s); got != want {
			t.Errorf("Hash(%q) = %#016x, want %#016x", s, got, want)
		}
	}
}

// shareOf returns each owner's share of the hash space: a point owns the
// arc from the previous point up to itself.
func shareOf(r *Ring, owners int) []float64 {
	shares := make([]float64, owners)
	for i, p := range r.points {
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		shares[p.owner] += float64(p.hash-prev) / math.Exp2(64) // uint64 wraparound is the circular arc
	}
	return shares
}

func shardLabels(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("shard-%d", i)
	}
	return labels
}

// TestBalance holds every shard layout the serving layer can build to an
// even split: each owner's arc is within [0.5/n, 1.5/n] of the hash space.
// Raw FNV over "shard-i-v" labels gives shard 0 85% of the space at n = 2.
func TestBalance(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16} {
		for owner, share := range shareOf(New(shardLabels(n)), n) {
			if share < 0.5/float64(n) || share > 1.5/float64(n) {
				t.Errorf("n=%d: shard %d owns %.1f%% of the ring, want %.1f%%..%.1f%%",
					n, owner, 100*share, 50/float64(n), 150/float64(n))
			}
		}
	}
}

// owners resolves each key's (primary, replica) labels on a ring over labels.
func owners(labels, keys []string) [][2]string {
	r := New(labels)
	out := make([][2]string, len(keys))
	for i, k := range keys {
		p, rep := r.Owners(k)
		out[i] = [2]string{labels[p], labels[rep]}
	}
	return out
}

// TestAddRemoveMovesOnlyThatOwner is the consistent-hashing property over
// 10k random keys: an added owner only takes keys, and a removed owner's
// keys are the only ones that move.
func TestAddRemoveMovesOnlyThatOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = fmt.Sprintf("engine-%d|gpu-%d", rng.Intn(1<<30), rng.Intn(1<<30))
	}
	three := owners([]string{"member-a:1", "member-b:1", "member-c:1"}, keys)
	added := owners([]string{"member-a:1", "member-b:1", "member-d:1", "member-c:1"}, keys)
	removed := owners([]string{"member-a:1", "member-c:1"}, keys)
	took, gave := 0, 0
	for i, k := range keys {
		if added[i][0] != three[i][0] {
			if added[i][0] != "member-d:1" {
				t.Fatalf("key %s moved %s -> %s: only the added owner may take keys", k, three[i][0], added[i][0])
			}
			took++
		}
		if removed[i][0] != three[i][0] {
			if three[i][0] != "member-b:1" {
				t.Fatalf("key %s moved %s -> %s: only the removed owner's keys may move", k, three[i][0], removed[i][0])
			}
			gave++
		}
	}
	if took < len(keys)/8 || took > len(keys)*3/8 {
		t.Errorf("added owner took %d of %d keys, want about a quarter", took, len(keys))
	}
	if gave < len(keys)/6 || gave > len(keys)/2 {
		t.Errorf("removed owner gave up %d of %d keys, want about a third", gave, len(keys))
	}
}

// TestReplica checks the replica is a distinct owner, and that rings too
// small to have one say so with -1.
func TestReplica(t *testing.T) {
	r := New(shardLabels(5))
	for i := 0; i < 1000; i++ {
		p, rep := r.Owners(fmt.Sprintf("key-%d", i))
		if p < 0 || rep < 0 || p == rep {
			t.Fatalf("key-%d: owners (%d, %d), want two distinct owners", i, p, rep)
		}
		if r.Owner(fmt.Sprintf("key-%d", i)) != p {
			t.Fatalf("key-%d: Owner disagrees with Owners", i)
		}
	}
	if p, rep := New([]string{"shard-0"}).Owners("k"); p != 0 || rep != -1 {
		t.Errorf("one-owner ring: owners (%d, %d), want (0, -1)", p, rep)
	}
	if p, rep := New(nil).Owners("k"); p != -1 || rep != -1 {
		t.Errorf("empty ring: owners (%d, %d), want (-1, -1)", p, rep)
	}
}
