// Cycle evolution vs from-scratch rebuild, across world-size tiers.
//
// BM_CycleRebuild is the oracle path (`Internet::instantiate`, which
// `Runner::run_cycle` uses): every cycle runs a full rebuild.
// BM_CycleEvolve advances one standing world through
// DeltaEvolver::evolve_to — pristine rollback plus seed-keyed deltas, the
// step every campaign takes.
// scripts/bench.sh records the numbers in BENCH_PR8.json and gates on the
// rebuild/evolve ratio at the 10^4-router tier (the delta step must be >= 5x
// faster).
//
// The gated arms run with cycle churn OFF and a low intra-month failure
// rate: that isolates the cost of standing up a cycle's control planes,
// which is what delta evolution elides (the paper's "nothing has changed
// between Cycle 28 and Cycle 29" case). The *Churn variants measure the same
// step with every churn knob on — reported for the scaling curve, ungated,
// since then both arms are dominated by the shared SPF and re-signalling work.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "gen/evolve.h"
#include "gen/internet.h"

namespace {

using namespace mum;

struct World {
  gen::GenConfig config;
  std::unique_ptr<gen::Internet> internet;
  std::uint64_t routers = 0;
};

// One world per (router tier, churn); built lazily, reused across arms so
// the rebuild and evolve measurements run against the identical topology.
const World& world(std::int64_t routers, bool churn) {
  static std::map<std::pair<std::int64_t, bool>, World> cache;
  World& w = cache[{routers, churn}];
  if (w.internet) return w;

  gen::GenConfig config;
  config.background_tier1 = 1;
  config.background_transit = 2;  // scale_routers drives the real count
  config.stub_ases = 8;
  config.monitors = 2;
  config.dests_per_monitor = 20;
  config.scale_routers = static_cast<std::uint64_t>(routers);
  config.scale_lsps = static_cast<std::uint64_t>(routers) * 10;
  // The gated arms turn intra-month maintenance failures off: apply_flaps'
  // failure routing runs identically in BOTH arms (it is per-snapshot
  // state, not per-cycle state) and at the default rates it dominates the
  // step, hiding the build cost delta evolution removes. The churn variant
  // keeps them on — the realistic, ungated number.
  config.as_maintenance_prob = churn ? 0.25 : 0.0;
  config.link_fail_prob = 0.01;
  if (churn) {
    // Per-link/per-router monthly rates; with a few hundred links per AS
    // these leave a realistic fraction of ASes untouched in a given cycle
    // (the paper's AS3356: month-over-month the infrastructure is usually
    // unchanged) instead of churning every AS every cycle.
    config.churn.link_down_prob = 0.001;
    config.churn.metric_change_prob = 0.001;
    config.churn.router_down_prob = 0.0005;
    config.churn.te_resignal_prob = 0.05;
  }
  w.config = config;
  w.internet = std::make_unique<gen::Internet>(config);
  for (const std::uint32_t asn : w.internet->modeled_asns()) {
    w.routers += w.internet->modeled(asn)->topo.router_count();
  }
  return w;
}

std::uint64_t lsp_count(const gen::Internet& internet,
                        const gen::MonthContext& ctx) {
  std::uint64_t lsps = 0;
  for (const std::uint32_t asn : internet.modeled_asns()) {
    const probe::AsDataPlane* plane = ctx.plane_of(asn);
    if (plane != nullptr && plane->rsvp != nullptr) {
      lsps += plane->rsvp->lsp_count();
    }
  }
  return lsps;
}

void run_rebuild(benchmark::State& state, bool churn) {
  const World& w = world(state.range(0), churn);
  std::optional<gen::MonthContext> ctx;
  int cycle = 0;
  for (auto _ : state) {
    ctx = w.internet->instantiate(1 + cycle++ % (gen::kCycles - 1));
    benchmark::DoNotOptimize(&*ctx);
  }
  state.counters["routers"] = static_cast<double>(w.routers);
  state.counters["lsps"] = static_cast<double>(lsp_count(*w.internet, *ctx));
}

void run_evolve(benchmark::State& state, bool churn) {
  const World& w = world(state.range(0), churn);
  gen::DeltaEvolver evolver(*w.internet);
  evolver.evolve_to(0);  // seed the standing world outside the timed region
  // Stay inside the modelled 60-cycle window; the wrap is a backward jump
  // (full rebuild), which only biases the measured mean AGAINST the evolve
  // arm — the gate stays conservative.
  int cycle = 0;
  for (auto _ : state) {
    evolver.evolve_to(1 + cycle++ % (gen::kCycles - 1));
    benchmark::DoNotOptimize(evolver.context());
  }
  const gen::CycleDeltaStats& stats = evolver.last_stats();
  state.counters["routers"] = static_cast<double>(w.routers);
  state.counters["lsps"] =
      static_cast<double>(lsp_count(*w.internet, *evolver.context()));
  state.counters["ases_restored"] = static_cast<double>(stats.ases_restored);
  state.counters["ases_rebuilt"] = static_cast<double>(stats.ases_rebuilt);
  state.counters["spf_recomputed"] =
      static_cast<double>(stats.spf_sources_recomputed);
}

void BM_CycleRebuild(benchmark::State& state) { run_rebuild(state, false); }
void BM_CycleEvolve(benchmark::State& state) { run_evolve(state, false); }
void BM_CycleRebuildChurn(benchmark::State& state) {
  run_rebuild(state, true);
}
void BM_CycleEvolveChurn(benchmark::State& state) { run_evolve(state, true); }

}  // namespace

// Scaling curve: 10^3 / 10^4 / 10^5 routers (LSPs = 10x routers, so the top
// tier carries 10^6 TE LSPs). Iteration counts are pinned on the big tiers
// to bound bench wall-clock; the gate reads the 10^4 tier.
BENCHMARK(BM_CycleRebuild)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CycleEvolve)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CycleRebuild)
    ->Arg(10000)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CycleEvolve)
    ->Arg(10000)
    ->Iterations(12)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CycleRebuild)
    ->Arg(100000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CycleEvolve)
    ->Arg(100000)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

// Churn-on variants (ungated): the realistic month-over-month step.
BENCHMARK(BM_CycleRebuildChurn)
    ->Arg(10000)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CycleEvolveChurn)
    ->Arg(10000)
    ->Iterations(12)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
