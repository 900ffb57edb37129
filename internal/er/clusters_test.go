package er

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
)

func TestClustersBasic(t *testing.T) {
	pairs := []core.MatchPair{
		{A: "a", B: "b"},
		{A: "b", B: "c"}, // transitive: a-b-c is one cluster
		{A: "x", B: "y"},
	}
	got := Clusters(pairs)
	want := [][]string{{"a", "b", "c"}, {"x", "y"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Clusters = %v, want %v", got, want)
	}
}

func TestClustersEmpty(t *testing.T) {
	if got := Clusters(nil); len(got) != 0 {
		t.Errorf("Clusters(nil) = %v", got)
	}
}

func TestClustersDuplicatePairs(t *testing.T) {
	pairs := []core.MatchPair{
		{A: "a", B: "b"}, {A: "a", B: "b"}, {A: "b", B: "a"},
	}
	got := Clusters(pairs)
	if len(got) != 1 || len(got[0]) != 2 {
		t.Errorf("Clusters = %v", got)
	}
}

// TestClustersTransitiveClosureProperty: for random graphs, two IDs are
// in the same cluster iff they are connected by a path of pairs.
func TestClustersTransitiveClosureProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(40) + 2
		var pairs []core.MatchPair
		adj := make(map[string]map[string]bool)
		addEdge := func(a, b string) {
			if adj[a] == nil {
				adj[a] = make(map[string]bool)
			}
			if adj[b] == nil {
				adj[b] = make(map[string]bool)
			}
			adj[a][b] = true
			adj[b][a] = true
		}
		for e := 0; e < rng.Intn(3*n); e++ {
			a := fmt.Sprintf("v%02d", rng.Intn(n))
			b := fmt.Sprintf("v%02d", rng.Intn(n))
			if a == b {
				continue
			}
			pairs = append(pairs, core.NewMatchPair(a, b))
			addEdge(a, b)
		}
		clusters := Clusters(pairs)

		// BFS reference components.
		visited := make(map[string]bool)
		refComp := make(map[string]int)
		comp := 0
		for v := range adj {
			if visited[v] {
				continue
			}
			queue := []string{v}
			visited[v] = true
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				refComp[cur] = comp
				for nb := range adj[cur] {
					if !visited[nb] {
						visited[nb] = true
						queue = append(queue, nb)
					}
				}
			}
			comp++
		}

		// Compare: same component iff same cluster.
		clusterOf := make(map[string]int)
		for ci, members := range clusters {
			for _, m := range members {
				clusterOf[m] = ci
			}
		}
		if len(clusterOf) != len(refComp) {
			t.Fatalf("trial %d: %d clustered IDs, want %d", trial, len(clusterOf), len(refComp))
		}
		for a := range refComp {
			for b := range refComp {
				same := refComp[a] == refComp[b]
				got := clusterOf[a] == clusterOf[b]
				if same != got {
					t.Fatalf("trial %d: %s/%s same-component=%v but same-cluster=%v", trial, a, b, same, got)
				}
			}
		}
	}
}

func TestClustersFromPipeline(t *testing.T) {
	// End-to-end: duplicates injected around two base entities collapse
	// into clusters containing their bases.
	es := smallDataset()
	res, err := RunPipeline(t.Context(), FromPartitions(entity.Partitions{es[:3], es[3:]}), Config{
		Strategy:        core.PairRange{},
		Attr:            "title",
		BlockKey:        blocking.NormalizedPrefix(3),
		PreparedMatcher: titleMatcher(0.8),
		R:               3,
	})
	if err != nil {
		t.Fatal(err)
	}
	clusters := Clusters(res.Matches)
	for _, c := range clusters {
		if len(c) < 2 {
			t.Errorf("cluster %v has fewer than 2 members", c)
		}
	}
}
