package core_test

import (
	"testing"

	"shortcutmining/internal/core"
	"shortcutmining/internal/nn"
)

// allocBudget bounds the allocations of one untraced Simulate run.
// Setup (pool, channel, consumption plan, resident slab, presized layer
// records) costs a constant; the steady-state Run.Step allocates
// nothing per layer except the geometric growth of the pool's buffer
// slab, bank-array reuse list and ID index. Measured: 19 (baseline),
// 28–41 (fm-reuse, SCM) per run for densechain through resnet152, the
// same under -race. An allocation inside the layer loop adds at least
// one per layer and fails resnet152 at once.
func allocBudget(layers int) float64 { return 48 + float64(layers)/4 }

// TestSimulateAllocsPerLayer guards the throughput of every core caller
// (scm-bench, the dse sweep, serve misses and jobs): the per-layer loop
// must stay allocation-free or runs/sec regresses across all of them.
func TestSimulateAllocsPerLayer(t *testing.T) {
	for _, name := range []string{"densechain", "resnet34", "resnet152"} {
		net, err := nn.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Default()
		for _, s := range core.Strategies() {
			layers := 0
			allocs := testing.AllocsPerRun(10, func() {
				res, err := core.Simulate(net, cfg, s, nil)
				if err != nil {
					t.Fatal(err)
				}
				layers = len(res.Layers)
			})
			if layers == 0 {
				t.Fatalf("%s/%s: no layers simulated", name, s)
			}
			budget := allocBudget(layers)
			t.Logf("%s/%s: %.0f allocs over %d layers = %.2f per layer (budget %.0f)",
				name, s, allocs, layers, allocs/float64(layers), budget)
			if allocs > budget {
				t.Errorf("%s/%s: %.0f allocs per run exceeds the %.0f budget — something in the layer loop started allocating",
					name, s, allocs, budget)
			}
		}
	}
}
