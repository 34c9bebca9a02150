package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("solve|a=%d|n=%d|key-%d", i%4+1, i%2+1, i)
	}
	return keys
}

func TestRingDeterministic(t *testing.T) {
	members := []string{"http://c:1", "http://a:1", "http://b:1"}
	r1 := BuildRing(members, 0)
	r2 := BuildRing([]string{"http://b:1", "http://a:1", "http://c:1", "http://a:1"}, 0)
	if !reflect.DeepEqual(r1.Members(), r2.Members()) {
		t.Fatalf("member order not canonical: %v vs %v", r1.Members(), r2.Members())
	}
	if want := []string{"http://a:1", "http://b:1", "http://c:1"}; !reflect.DeepEqual(r1.Members(), want) {
		t.Fatalf("members = %v, want %v", r1.Members(), want)
	}
	for _, k := range testKeys(500) {
		if o1, o2 := r1.Owner(k), r2.Owner(k); o1 != o2 {
			t.Fatalf("owner of %q differs across identical rings: %q vs %q", k, o1, o2)
		}
	}
}

// Every member's share of the hash circle lies within half of the fair
// 1/m either way. Shares are exact arc lengths (each virtual node owns
// the arc ending at it), so the check does not depend on a key sample.
func TestRingArcSharesBalanced(t *testing.T) {
	for _, members := range [][]string{
		{"http://127.0.0.1:18101", "http://127.0.0.1:18102", "http://127.0.0.1:18103"},
		{"http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080", "http://10.0.0.4:8080"},
	} {
		r := BuildRing(members, 0)
		share := map[string]float64{}
		for i, p := range r.points {
			prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
			share[p.node] += float64(p.hash-prev) / (1 << 64) // wraps at i = 0
		}
		fair := 1 / float64(len(members))
		for _, m := range members {
			if s := share[m]; s < fair/2 || s > 1.5*fair {
				t.Errorf("%s owns %.1f%% of the circle, want %.1f%%..%.1f%% (shares %v)",
					m, 100*s, 50*fair, 150*fair, share)
			}
		}
	}
}

func TestRingCoversAllMembers(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := BuildRing(members, 0)
	owned := map[string]int{}
	for _, k := range testKeys(1000) {
		owned[r.Owner(k)]++
	}
	for _, m := range members {
		if owned[m] == 0 {
			t.Errorf("member %s owns no keys out of 1000 (distribution %v)", m, owned)
		}
	}
}

// Adding a member must only move keys TO the new member: every key's
// owner either stays put or becomes the joiner. This is the consistent
// hashing property the cluster's rebalancing correctness rests on.
func TestRingAddMovesKeysOnlyToNewMember(t *testing.T) {
	before := BuildRing([]string{"http://a:1", "http://b:1", "http://c:1"}, 0)
	after := BuildRing([]string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}, 0)
	moved := 0
	keys := testKeys(2000)
	for _, k := range keys {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob != oa {
			moved++
			if oa != "http://d:1" {
				t.Fatalf("key %q moved %q -> %q, not to the new member", k, ob, oa)
			}
		}
	}
	if moved == 0 {
		t.Fatal("new member took over no keys")
	}
	if moved > len(keys)/2 {
		t.Fatalf("new member took %d/%d keys — far more than its fair share", moved, len(keys))
	}
}

// Removing a member must only move that member's keys: everything it
// did not own keeps its owner.
func TestRingRemoveMovesOnlyDepartedKeys(t *testing.T) {
	before := BuildRing([]string{"http://a:1", "http://b:1", "http://c:1"}, 0)
	after := BuildRing([]string{"http://a:1", "http://c:1"}, 0)
	for _, k := range testKeys(2000) {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob != "http://b:1" && ob != oa {
			t.Fatalf("key %q owned by %q moved to %q though its owner never left", k, ob, oa)
		}
		if oa == "http://b:1" {
			t.Fatalf("key %q still owned by the departed member", k)
		}
	}
}

func TestRingReplicasDistinctOwnerFirst(t *testing.T) {
	r := BuildRing([]string{"http://a:1", "http://b:1", "http://c:1"}, 0)
	for _, k := range testKeys(200) {
		reps := r.Replicas(k, 2)
		if len(reps) != 2 {
			t.Fatalf("Replicas(%q, 2) = %v, want 2 distinct members", k, reps)
		}
		if reps[0] != r.Owner(k) {
			t.Fatalf("Replicas(%q)[0] = %q, want the owner %q", k, reps[0], r.Owner(k))
		}
		if reps[0] == reps[1] {
			t.Fatalf("Replicas(%q) = %v, members not distinct", k, reps)
		}
	}
	// Asking for more replicas than members shortens the slice.
	if reps := r.Replicas("k", 10); len(reps) != 3 {
		t.Fatalf("Replicas(k, 10) = %v, want all 3 members", reps)
	}
}

func TestRingEmpty(t *testing.T) {
	r := BuildRing(nil, 0)
	if o := r.Owner("anything"); o != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", o)
	}
	if reps := r.Replicas("anything", 2); reps != nil {
		t.Fatalf("empty ring replicas = %v, want nil", reps)
	}
	if r.Size() != 0 {
		t.Fatalf("empty ring size = %d", r.Size())
	}
}
