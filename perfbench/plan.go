package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"shortcutmining/internal/core"
	"shortcutmining/internal/dse"
)

// Plans are pure functions of the seed: every input a workload sends
// is generated here, before timing starts, and nothing else feeds the
// program. Each workload salts the seed so two workloads run with one
// seed do not share a random stream.

func newRand(seed int64, salt string) *rand.Rand {
	h := int64(14695981039346656037 & 0x7fffffffffffffff)
	for i := 0; i < len(salt); i++ {
		h = (h ^ int64(salt[i])) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// zooPlan is the sim-zoo op order: passes back-to-back seeded
// permutations of the pair indices 0..pairs-1, so every pair runs
// equally often and a run's mix does not depend on where it stops.
func zooPlan(seed int64, pairs, passes int) []int {
	rng := newRand(seed, "sim-zoo")
	out := make([]int, 0, pairs*passes)
	for p := 0; p < passes; p++ {
		out = append(out, rng.Perm(pairs)...)
	}
	return out
}

// sweepSpace is dse.DefaultSpace with every axis in seeded order: the
// same 72 design points, enumerated in a different order per seed.
func sweepSpace(seed int64) dse.Space {
	rng := newRand(seed, "sweep-dse")
	s := dse.DefaultSpace()
	rng.Shuffle(len(s.Banks), func(i, j int) { s.Banks[i], s.Banks[j] = s.Banks[j], s.Banks[i] })
	rng.Shuffle(len(s.BankKiB), func(i, j int) { s.BankKiB[i], s.BankKiB[j] = s.BankKiB[j], s.BankKiB[i] })
	rng.Shuffle(len(s.PE), func(i, j int) { s.PE[i], s.PE[j] = s.PE[j], s.PE[i] })
	rng.Shuffle(len(s.FmapGBps), func(i, j int) { s.FmapGBps[i], s.FmapGBps[j] = s.FmapGBps[j], s.FmapGBps[i] })
	return s
}

// hotNetworks × core.Strategies() is serve-hot's fixed key set: small
// to large replies (3 to 20 KB), the same for every seed.
var hotNetworks = []string{"densechain", "squeezenet", "resnet18", "resnet34", "mobilenetv2", "googlenet"}

// hotKey is one serve-hot request: a (network, strategy) pair and its
// pre-encoded POST /v1/simulate body.
type hotKey struct {
	net   int // index into hotNetworks
	strat core.Strategy
	body  []byte
}

func hotKeys() []hotKey {
	var keys []hotKey
	for i, n := range hotNetworks {
		for _, s := range core.Strategies() {
			keys = append(keys, hotKey{net: i, strat: s,
				body: []byte(fmt.Sprintf(`{"network":%q,"strategy":%q}`, n, s))})
		}
	}
	return keys
}

// hotPlan gives each connection back-to-back seeded permutations of
// the key indices 0..keys-1, so every seed sends the same mix.
func hotPlan(seed int64, keys, conns, perConn int) [][]int {
	rng := newRand(seed, "serve-hot")
	plan := make([][]int, conns)
	for c := range plan {
		for len(plan[c]) < perConn {
			plan[c] = append(plan[c], rng.Perm(keys)...)
		}
		plan[c] = plan[c][:perConn]
	}
	return plan
}

// durableNetworks are serve-durable's small-to-mid simulation targets;
// scheduleNetworks feed its schedule jobs.
var (
	durableNetworks  = []string{"densechain", "squeezenet", "squeezenet-bypass", "resnet18", "plain34", "vgg16", "resnet34"}
	scheduleNetworks = []string{"densechain", "squeezenet", "resnet18"}
	schedulePolicies = []string{"fcfs", "rr"}
)

// Perturbation ranges of serve-durable's simulate jobs. Warm-up jobs
// use warmBandwidth, outside the plan's range, so the timed phase
// never hits an entry the warm-up cached.
const (
	defaultBanks  = 34
	minBanks      = 20
	maxBanks      = 64
	bwSteps       = 35_000 // bandwidth = 0.5 + k/10000 GB/s, k < bwSteps
	warmBandwidth = 5.0
)

// serve-durable's mix: every block of blockOps ops holds, at seeded
// positions, one schedule job, asyncPerBlock journaled simulate jobs
// and synchronous simulate requests for the rest. Only async jobs are
// journaled, and each costs several fsyncs; keeping them a minority of
// the ops keeps the workload's timings from being those of the host's
// disk alone, whose fsync latency swings by 2-3x on a shared host.
const (
	blockOps      = 10
	asyncPerBlock = 1
)

// durableOp is one serve-durable request: a simulation with a
// perturbed platform, synchronous or an async job, or a schedule job
// (always async).
type durableOp struct {
	schedule bool
	async    bool
	net      int // index into durableNetworks (simulate)
	strat    core.Strategy
	banks    int
	bw       float64
	spec     string // schedule grammar (schedule)
	body     []byte
}

// config is the platform the op's config override produces.
func (o durableOp) config() core.Config {
	cfg := core.Default()
	cfg.Pool.NumBanks = o.banks
	cfg.DRAM.BandwidthGBps = o.bw
	return cfg
}

func simulateOp(net int, strat core.Strategy, banks int, bw float64, async bool) durableOp {
	b := make([]byte, 0, 160)
	// Network and strategy names are plain identifiers: no escaping.
	b = append(b, `{"network":"`...)
	b = append(b, durableNetworks[net]...)
	b = append(b, `","strategy":"`...)
	b = append(b, strat.String()...)
	b = append(b, `",`...)
	if async {
		b = append(b, `"async":true,`...)
	}
	b = append(b, `"config":{"Pool":{"NumBanks":`...)
	b = strconv.AppendInt(b, int64(banks), 10)
	b = append(b, `},"DRAM":{"BandwidthGBps":`...)
	b = strconv.AppendFloat(b, bw, 'g', -1, 64)
	b = append(b, "}}}"...)
	return durableOp{net: net, strat: strat, banks: banks, bw: bw, async: async, body: b}
}

func scheduleOp(seed int64, policy, a, b string) durableOp {
	spec := fmt.Sprintf("seed=%d;policy=%s;stream=%s:n=1,gap=0;stream=%s:n=1,gap=0", seed, policy, a, b)
	return durableOp{schedule: true, async: true, spec: spec, body: []byte(fmt.Sprintf(`{"spec":%q}`, spec))}
}

// durablePlan generates each connection's op sequence in blocks of
// blockOps (see the mix above). The simulate ops' (network, strategy)
// pairs follow back-to-back seeded permutations of all pairs, so every
// seed sends the same mix, and each gets a seeded pool-size or
// bandwidth perturbation that makes it a distinct cache key across the
// whole plan.
func durablePlan(seed int64, conns, perConn int) [][]durableOp {
	rng := newRand(seed, "serve-durable")
	type key struct {
		net, strat, banks int
		bw                float64
	}
	seen := map[key]bool{}
	strategies := core.Strategies()
	pairs := len(durableNetworks) * len(strategies)
	plan := make([][]durableOp, conns)
	for c := range plan {
		var order, roles []int
		for i := 0; i < perConn; i++ {
			if len(roles) == 0 {
				roles = rng.Perm(blockOps) // 0: schedule, 1..asyncPerBlock: async
			}
			role := roles[0]
			roles = roles[1:]
			if role == 0 {
				plan[c] = append(plan[c], scheduleOp(1+rng.Int63n(1<<20), schedulePolicies[rng.Intn(len(schedulePolicies))],
					scheduleNetworks[rng.Intn(len(scheduleNetworks))], scheduleNetworks[rng.Intn(len(scheduleNetworks))]))
				continue
			}
			if len(order) == 0 {
				order = rng.Perm(pairs)
			}
			pair := order[0]
			order = order[1:]
			k := key{net: pair / len(strategies), strat: pair % len(strategies)}
			for {
				k.banks, k.bw = defaultBanks, 1.0
				if rng.Intn(2) == 0 {
					k.banks = minBanks + rng.Intn(maxBanks-minBanks+1)
				} else {
					k.bw = 0.5 + float64(rng.Intn(bwSteps))/10000
				}
				if !seen[k] {
					break
				}
			}
			seen[k] = true
			plan[c] = append(plan[c], simulateOp(k.net, strategies[k.strat], k.banks, k.bw, role <= asyncPerBlock))
		}
	}
	return plan
}

// durableWarmOps is serve-durable's warm-up pass: one synchronous
// request and one job per (network, strategy), and one job per schedule
// policy, on inputs the plan never draws.
func durableWarmOps() []durableOp {
	var ops []durableOp
	for n := range durableNetworks {
		for i, s := range core.Strategies() {
			ops = append(ops, simulateOp(n, s, defaultBanks, warmBandwidth, false),
				simulateOp(n, s, defaultBanks+1+i, warmBandwidth, true))
		}
	}
	for _, p := range schedulePolicies {
		ops = append(ops, scheduleOp(0, p, scheduleNetworks[0], scheduleNetworks[1]))
	}
	return ops
}
