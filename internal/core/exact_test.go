package core

import (
	"errors"
	"math"
	"testing"

	"blink/internal/graph"
	"blink/internal/topology"
)

func TestExactPackDGX1V(t *testing.T) {
	g := topology.DGX1V().GPUGraph()
	p, err := ExactPack(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rate != 6 || len(p.Trees) != 6 {
		t.Fatalf("exact pack: rate %v with %d trees, want 6/6", p.Rate, len(p.Trees))
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestExactPackMatchesMinimizeEverywhere(t *testing.T) {
	// The MWU+ILP pipeline must achieve the same integral rate as the
	// exact peel on every paper allocation (all have integer capacities).
	v := topology.DGX1V()
	for _, devs := range topology.Fig15AllocationsDGX1V {
		ind, err := v.Induce(devs)
		if err != nil {
			t.Fatal(err)
		}
		g := ind.GPUGraph()
		exact, err := ExactPack(g, 0)
		if err != nil {
			t.Fatalf("alloc %v: %v", devs, err)
		}
		approx, err := GenerateTrees(g, 0, PackOptions{}, MinimizeOptions{})
		if err != nil {
			t.Fatalf("alloc %v: %v", devs, err)
		}
		if math.Abs(exact.Rate-math.Floor(exact.Bound+1e-9)) > 1e-9 {
			t.Fatalf("alloc %v: exact rate %v below integral bound %v", devs, exact.Rate, exact.Bound)
		}
		if approx.Rate < exact.Rate-1e-6 {
			t.Errorf("alloc %v: MWU+ILP rate %v below exact %v", devs, approx.Rate, exact.Rate)
		}
	}
}

func TestExactPackRejectsFractional(t *testing.T) {
	g := graph.New(2)
	g.AddBiEdge(0, 1, 0.5, graph.NVLink)
	if _, err := ExactPack(g, 0); err == nil {
		t.Fatal("fractional capacities accepted")
	}
}

func TestExactPackSingleton(t *testing.T) {
	g := graph.New(1)
	p, err := ExactPack(g, 0)
	if err != nil || !math.IsInf(p.Rate, 1) {
		t.Fatalf("singleton: %v %v", p, err)
	}
}

// A graph with no spanning arborescence from the root has broadcast rate
// zero; ExactPack must reject it the way PackTrees and GenerateTrees do
// instead of returning an empty packing with a nil error.
func TestExactPackZeroRate(t *testing.T) {
	unreachable := graph.New(3)
	unreachable.AddEdge(0, 1, 1, graph.NVLink) // vertex 2 unreachable
	unreachable.AddEdge(1, 0, 1, graph.NVLink)
	unreachable.AddEdge(2, 0, 1, graph.NVLink)
	isolated := graph.New(3)
	isolated.AddEdge(0, 1, 1, graph.NVLink) // vertex 2 has no edges
	isolated.AddEdge(1, 0, 1, graph.NVLink)
	for name, g := range map[string]*graph.Graph{"unreachable": unreachable, "isolated": isolated} {
		p, err := ExactPack(g, 0)
		if !errors.Is(err, ErrNoSpanningTree) {
			t.Errorf("%s: got %+v, %v; want ErrNoSpanningTree", name, p, err)
		}
	}
}

// Differential test: on every root of the DGX-1 allocations below, the
// production pipeline and the exact peel reach the same rate, and that rate
// is the integral Edmonds bound. ExactPack is the oracle that keeps the
// production packer honest.
func TestPipelineMatchesExactPackAtIntegralBound(t *testing.T) {
	pl := NewPlannerPipeline(PipelineOptions{})
	for _, tc := range []struct {
		machine *topology.Topology
		devs    []int
	}{
		{topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{topology.DGX1V(), []int{1, 4, 5, 6}},
		{topology.DGX1V(), []int{0, 1, 2, 3, 4, 5}},
		{topology.DGX1P(), []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{topology.DGX1P(), []int{0, 1, 2, 3, 4}},
	} {
		ind, err := tc.machine.Induce(tc.devs)
		if err != nil {
			t.Fatal(err)
		}
		g := ind.GPUGraph()
		for root := 0; root < g.N; root++ {
			got, _, err := pl.PackRoot(g, root)
			if err != nil {
				t.Fatalf("%s%v root %d: pipeline: %v", tc.machine.Name, tc.devs, root, err)
			}
			exact, err := ExactPack(g, root)
			if err != nil {
				t.Fatalf("%s%v root %d: exact: %v", tc.machine.Name, tc.devs, root, err)
			}
			want := math.Floor(graph.BroadcastRateUpperBound(g, root) + 1e-9)
			if math.Abs(got.Rate-want) > 1e-9 || math.Abs(exact.Rate-want) > 1e-9 {
				t.Errorf("%s%v root %d: pipeline rate %v, exact rate %v, want floor(bound) %v",
					tc.machine.Name, tc.devs, root, got.Rate, exact.Rate, want)
			}
		}
	}
}
