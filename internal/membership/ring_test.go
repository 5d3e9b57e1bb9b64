package membership

import (
	"fmt"
	"testing"

	"altrun/internal/ids"
)

func ringNodes(n int) []ids.NodeID {
	out := make([]ids.NodeID, n)
	for i := range out {
		out[i] = ids.NodeID(i + 1)
	}
	return out
}

func TestRingLookupDeterministicAndBalanced(t *testing.T) {
	r := NewRing(ringNodes(16), 0)
	counts := make(map[ids.NodeID]int)
	for i := 0; i < 1600; i++ {
		key := fmt.Sprintf("rfork/kind-%d", i)
		n1, ok := r.Lookup(key)
		if !ok {
			t.Fatalf("lookup %q missed", key)
		}
		n2, _ := r.Lookup(key)
		if n1 != n2 {
			t.Fatalf("lookup %q unstable: %d then %d", key, n1, n2)
		}
		counts[n1]++
	}
	if len(counts) != 16 {
		t.Fatalf("only %d of 16 nodes own keys", len(counts))
	}
	for n, c := range counts {
		if c > 3*1600/16 {
			t.Errorf("node %d owns %d of 1600 keys (>3x fair share)", n, c)
		}
	}
}

func TestRingWalkVisitsEachNodeOnce(t *testing.T) {
	r := NewRing(ringNodes(8), 16)
	owner, _ := r.Lookup("some/lineage")
	var visited []ids.NodeID
	r.Walk("some/lineage", func(n ids.NodeID) bool {
		visited = append(visited, n)
		return true
	})
	if len(visited) != 8 {
		t.Fatalf("walk visited %d nodes, want 8: %v", len(visited), visited)
	}
	if visited[0] != owner {
		t.Errorf("walk started at %d, Lookup owner is %d", visited[0], owner)
	}
	seen := make(map[ids.NodeID]bool)
	for _, n := range visited {
		if seen[n] {
			t.Fatalf("walk visited node %d twice: %v", n, visited)
		}
		seen[n] = true
	}
}

// Removing one node must only remap the keys it owned: the consistency
// property that keeps rfork lineage affinity intact across membership
// churn.
func TestRingRemovalOnlyRemapsOwnedKeys(t *testing.T) {
	full := NewRing(ringNodes(16), 0)
	const gone = ids.NodeID(7)
	var remaining []ids.NodeID
	for _, n := range ringNodes(16) {
		if n != gone {
			remaining = append(remaining, n)
		}
	}
	smaller := NewRing(remaining, 0)
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("lineage/%d", i)
		before, _ := full.Lookup(key)
		after, _ := smaller.Lookup(key)
		if before == gone {
			if after == gone {
				t.Fatalf("key %q still maps to removed node", key)
			}
			moved++
			continue
		}
		if before != after {
			t.Errorf("key %q moved %d → %d though its owner stayed", key, before, after)
		}
		kept++
	}
	if moved == 0 {
		t.Fatal("no key was owned by the removed node")
	}
	t.Logf("removal remapped %d keys, kept %d", moved, kept)
}

func TestRingEmptyAndNil(t *testing.T) {
	r := NewRing(nil, 0)
	if _, ok := r.Lookup("anything"); ok {
		t.Error("empty ring lookup succeeded")
	}
	var nilRing *Ring
	if _, ok := nilRing.Lookup("anything"); ok {
		t.Error("nil ring lookup succeeded")
	}
	if nilRing.Nodes() != 0 {
		t.Error("nil ring reports nodes")
	}
}
