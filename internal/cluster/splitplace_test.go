package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/radio"
)

// splitScenario is the acceptance shape: one task whose only
// accuracy-satisfying path needs 1.2 GB of blocks — more memory than any
// single test node has, but within reach of two nodes together.
func splitScenario() ([]core.Task, map[string]core.BlockSpec) {
	ids := []string{"split/stage1", "split/stage2", "split/stage3", "split/stage4"}
	blocks := make(map[string]core.BlockSpec, len(ids))
	for _, id := range ids {
		blocks[id] = core.BlockSpec{ID: id, ComputeSeconds: 1e-4, MemoryGB: 0.3, TrainSeconds: 1}
	}
	task := core.Task{
		ID:          "big",
		Priority:    1,
		Rate:        2,
		MinAccuracy: 0.9,
		MaxLatency:  500 * time.Millisecond,
		InputBits:   350e3,
		SNRdB:       20,
		Paths: []core.PathSpec{{
			ID: "split/full", DNN: "split", Blocks: ids, Accuracy: 0.95,
		}},
	}
	return []core.Task{task}, blocks
}

// splitNode is a member with 0.7 GB of memory: any two path stages fit,
// three don't.
func splitNode(id string) Node {
	return Node{ID: id, Addr: "http://" + id, BandwidthMbps: 100, Res: core.Resources{
		RBs:                50,
		ComputeSeconds:     2.5,
		MemoryGB:           0.7,
		TrainBudgetSeconds: 1000,
		Capacity:           radio.PaperRate(),
	}}
}

// TestSplitPlaceSingleNodeInfeasible: with one node the path cannot be
// admitted whole and there is no peer to split onto.
func TestSplitPlaceSingleNodeInfeasible(t *testing.T) {
	tasks, blocks := splitScenario()
	p := PlaceWith(context.Background(), tasks, blocks, []Node{splitNode("a")}, PlaceConfig{Alpha: 0.5, Split: &SplitConfig{}})
	if len(p.Splits) != 0 {
		t.Fatalf("single node produced a split plan: %+v", p.Splits)
	}
	if len(p.unplaced) != 1 || p.unplaced[0] != "big" {
		t.Fatalf("unplaced %v, want [big]", p.unplaced)
	}
	if _, ok := p.route["big"]; ok {
		t.Fatal("infeasible task was routed")
	}
}

// TestSplitPlaceTwoNodes: the same task splits across two nodes at the
// only memory-feasible cut (2|2 stages) and is routed to the head.
func TestSplitPlaceTwoNodes(t *testing.T) {
	tasks, blocks := splitScenario()
	nodes := []Node{splitNode("a"), splitNode("b")}
	p := PlaceWith(context.Background(), tasks, blocks, nodes, PlaceConfig{Alpha: 0.5, Split: &SplitConfig{}})
	if len(p.unplaced) != 0 {
		t.Fatalf("unplaced %v, want none", p.unplaced)
	}
	if len(p.Splits) != 1 {
		t.Fatalf("splits %d, want 1", len(p.Splits))
	}
	sp := p.Splits[0]
	if sp.taskID != "big" || sp.path.ID != "split/full" {
		t.Fatalf("split plan for %s/%s, want big/split/full", sp.taskID, sp.path.ID)
	}
	if len(sp.Segments) != 2 {
		t.Fatalf("segments %d, want 2", len(sp.Segments))
	}
	// 0.3 GB/stage against 0.7 GB nodes: cut after 1 or 3 leaves a 0.9 GB
	// segment, so only the 2|2 cut is feasible.
	if sp.Segments[0].from != 0 || sp.Segments[0].To != 2 || sp.Segments[1].from != 2 || sp.Segments[1].To != 4 {
		t.Fatalf("cut [%d,%d)|[%d,%d), want [0,2)|[2,4)",
			sp.Segments[0].from, sp.Segments[0].To, sp.Segments[1].from, sp.Segments[1].To)
	}
	if sp.Segments[0].nodeID == sp.Segments[1].nodeID {
		t.Fatalf("both segments on %s", sp.Segments[0].nodeID)
	}
	if sp.z != 1 {
		t.Errorf("admitted fraction %v, want 1 (nothing else competes)", sp.z)
	}
	if sp.rbs <= 0 {
		t.Errorf("head slice %d RBs, want positive", sp.rbs)
	}
	if sp.Segments[0].transferBits <= 0 {
		t.Error("head segment ships no boundary activation")
	}
	if sp.Segments[1].transferBits != 0 {
		t.Error("tail segment has a transfer")
	}
	if sp.latencyMS <= 0 || sp.latencyMS > 500 {
		t.Errorf("predicted latency %.1fms outside (0, 500]", sp.latencyMS)
	}
	if sp.budgetMS <= 0 || sp.budgetMS > 500 {
		t.Errorf("pipeline budget %.1fms outside (0, 500]", sp.budgetMS)
	}
	head := sp.Segments[0]
	if got, ok := p.route["big"]; !ok || got != head.nodeID {
		t.Fatalf("routed to %q, want head %q", got, head.nodeID)
	}
	// Each node's plan must carry the block specs its segment deploys, so
	// the member-side catalog can price them.
	for _, seg := range sp.Segments {
		for pi := range p.plans {
			if p.plans[pi].Node.ID != seg.nodeID {
				continue
			}
			for _, id := range sp.path.Blocks[seg.from:seg.To] {
				if _, ok := p.plans[pi].Blocks[id]; !ok {
					t.Errorf("node %s plan missing segment block %s", seg.nodeID, id)
				}
			}
		}
	}
}

// TestSplitPlaceRespectsLatency: a deadline tighter than the radio
// transmission floor leaves the task unplaced rather than admitting an
// unmeetable pipeline.
func TestSplitPlaceRespectsLatency(t *testing.T) {
	tasks, blocks := splitScenario()
	tasks[0].MaxLatency = 5 * time.Millisecond // one 350 Kb frame needs ≥ 20ms at 50 RBs
	p := PlaceWith(context.Background(), tasks, blocks, []Node{splitNode("a"), splitNode("b")},
		PlaceConfig{Alpha: 0.5, Split: &SplitConfig{}})
	if len(p.Splits) != 0 {
		t.Fatalf("unmeetable deadline still split: %+v", p.Splits)
	}
	if len(p.unplaced) != 1 {
		t.Fatalf("unplaced %v, want the task back", p.unplaced)
	}
}

// TestSplitPlaceIgnoresTrainNormalizer: Ct normalizes the objective's
// training term, it is not a budget (DOT (1b)–(1e) never charge it). A
// node whose Ct is smaller than the blocks' training cost still hosts
// them: the task splits 2|2 as it does at Ct = 1000.
func TestSplitPlaceIgnoresTrainNormalizer(t *testing.T) {
	tasks, blocks := splitScenario()
	nodes := []Node{splitNode("a"), splitNode("b")}
	for i := range nodes {
		nodes[i].Res.TrainBudgetSeconds = 1
	}
	p := PlaceWith(context.Background(), tasks, blocks, nodes, PlaceConfig{Alpha: 0.5, Split: &SplitConfig{}})
	if len(p.unplaced) != 0 || len(p.Splits) != 1 {
		t.Fatalf("unplaced %v, %d splits; want the task split", p.unplaced, len(p.Splits))
	}
	if segs := p.Splits[0].Segments; len(segs) != 2 || segs[0].To != 2 {
		t.Fatalf("segments %+v, want the 2|2 cut", segs)
	}
}

// TestCheckSplitsDropsOvercommit: the placement post-condition reserves
// each node's wire segments on its instance; a split whose segment no
// longer fits is dropped, its route removed, its task unplaced and its
// weight taken back, and the node is named in Errors.
func TestCheckSplitsDropsOvercommit(t *testing.T) {
	tasks, blocks := splitScenario()
	p := PlaceWith(context.Background(), tasks, blocks, []Node{splitNode("a"), splitNode("b")},
		PlaceConfig{Alpha: 0.5, Split: &SplitConfig{}})
	if len(p.Splits) != 1 || len(p.errors) != 0 || len(wireSegments(p.Splits)) != 2 {
		t.Fatalf("placement: %d splits, errors %v, segments on %d nodes", len(p.Splits), p.errors, len(wireSegments(p.Splits)))
	}
	// 2.5 s/s of compute over the two 1e-4 s stages of a segment: 12 500
	// requests per second fit, 20 000 do not.
	p.Splits[0].rate = 20000
	p.checkSplits()
	p.assemble(tasks)
	if len(p.Splits) != 0 {
		t.Fatalf("overcommitted split kept: %+v", p.Splits)
	}
	if _, ok := p.route["big"]; ok || len(p.unplaced) != 1 || p.unplaced[0] != "big" {
		t.Fatalf("route %v, unplaced %v; want big unrouted", p.route, p.unplaced)
	}
	if p.weightedAdmission != 0 {
		t.Errorf("weighted admission %v after the drop, want 0", p.weightedAdmission)
	}
	if len(p.errors) != 2 || !strings.Contains(p.errors[0], "(1c)") {
		t.Errorf("errors %v, want both nodes named with (1c)", p.errors)
	}
}
