// Delta-based cycle evolution: the DeltaEvolver oracle contract and the
// allocation machinery underneath it.
//
// The load-bearing property: a delta-evolved cycle is byte-identical to a
// from-scratch `instantiate(cycle)` — at any thread count, from any starting
// cycle, with every churn knob turned on. The full rebuild stays available
// as the oracle (`Internet::instantiate`, `Runner::run_cycle`); these tests
// hold the two paths against each other at every layer (arena, label pools,
// lazy SPF rows, evolver, runner, resume).
#include "gen/evolve.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "dataset/pack.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "igp/spf.h"
#include "mpls/label_pool.h"
#include "mpls/rsvp.h"
#include "obs/telemetry.h"
#include "run/checkpoint.h"
#include "run/manifest.h"
#include "run/runner.h"
#include "spf_reference.h"
#include "topo/builder.h"
#include "topo/topology.h"
#include "util/arena.h"
#include "util/rng.h"

namespace mum {
namespace {

namespace fs = std::filesystem;

net::Ipv4Addr ip(std::uint32_t low) { return net::Ipv4Addr(10, 0, 0, low); }

// --- util::Arena -----------------------------------------------------------

TEST(Arena, BumpAllocatesZeroedAlignedArrays) {
  util::Arena arena(256);
  auto a = arena.make_array<std::uint32_t>(10);
  ASSERT_EQ(a.size(), 10u);
  for (const std::uint32_t v : a) EXPECT_EQ(v, 0u);
  auto b = arena.make_array<std::uint64_t>(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) %
                alignof(std::uint64_t),
            0u);
  EXPECT_GE(arena.used(), 10 * sizeof(std::uint32_t) + 3 * sizeof(std::uint64_t));
}

TEST(Arena, CopyArrayPreservesContents) {
  util::Arena arena;
  const std::vector<std::uint16_t> src = {1, 2, 3, 5, 8, 13};
  auto copy = arena.copy_array<std::uint16_t>({src.data(), src.size()});
  ASSERT_EQ(copy.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) EXPECT_EQ(copy[i], src[i]);
  EXPECT_NE(static_cast<const void*>(copy.data()),
            static_cast<const void*>(src.data()));
}

TEST(Arena, ResetRetainsChunksAndTracksHighWater) {
  util::Arena arena(64);
  // Force growth across several chunks.
  for (int i = 0; i < 50; ++i) arena.make_array<std::uint64_t>(16);
  EXPECT_GT(arena.chunk_count(), 1u);
  const std::size_t cap = arena.capacity();
  const std::size_t hw = arena.high_water();
  EXPECT_GT(hw, 0u);

  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.capacity(), cap);      // chunks retained, not freed
  EXPECT_EQ(arena.high_water(), hw);     // peak survives the reset

  // A same-sized workload after reset fits in the retained chunks: the
  // capacity high-water mark is reached once, then allocation stops.
  for (int i = 0; i < 50; ++i) arena.make_array<std::uint64_t>(16);
  EXPECT_EQ(arena.capacity(), cap);
}

TEST(ArenaVector, GrowsAndKeepsElements) {
  util::Arena arena(128);
  util::ArenaVector<std::uint32_t> v(arena);
  EXPECT_TRUE(v.empty());
  for (std::uint32_t i = 0; i < 1000; ++i) v.push_back(i * 3);
  ASSERT_EQ(v.size(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i * 3);
  std::uint64_t sum = 0;
  for (const std::uint32_t x : v) sum += x;
  EXPECT_EQ(sum, 3ull * 999 * 1000 / 2);
  v.clear();
  EXPECT_EQ(v.size(), 0u);
}

// --- mpls::LabelPool state/burn --------------------------------------------

TEST(LabelPool, BurnMatchesRepeatedAllocateIncludingWrap) {
  // The Juniper range is 500001 wide; 1000003 burns wrap it twice — burn's
  // O(1) arithmetic must land exactly where the allocate loop does.
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{499999},
        std::uint64_t{500001}, std::uint64_t{1000003}}) {
    mpls::LabelPool looped(topo::Vendor::kJuniper, /*seed=*/42);
    mpls::LabelPool burned = looped;
    for (std::uint64_t i = 0; i < n; ++i) looped.allocate();
    burned.burn(n);
    EXPECT_EQ(burned.state().next, looped.state().next) << "n=" << n;
    EXPECT_EQ(burned.state().count, looped.state().count) << "n=" << n;
    // And the next real draw agrees.
    EXPECT_EQ(burned.allocate(), looped.allocate()) << "n=" << n;
  }
}

TEST(LabelPool, RestoreRewindsToTheExactDrawSequence) {
  mpls::LabelPool pool(topo::Vendor::kCisco, /*seed=*/7);
  pool.burn(123);
  const mpls::LabelPool::State snap = pool.state();
  std::vector<std::uint32_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(pool.allocate());
  pool.restore(snap);
  EXPECT_EQ(pool.allocated(), snap.count);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(pool.allocate(), first[i]);
}

// --- igp::IgpState under cycle overlays --------------------------------------

topo::AsTopology random_topology(std::uint64_t seed) {
  util::Rng rng(seed);
  topo::BuildParams params;
  params.asn = 1;
  params.block = net::Ipv4Prefix(net::Ipv4Addr(16, 0, 0, 0), 16);
  params.core_routers = 4 + static_cast<int>(rng.below(5));
  params.pop_routers = 8 + static_cast<int>(rng.below(16));
  params.parallel_link_prob = (seed % 2 == 0) ? 0.4 : 0.0;
  params.uniform_costs = (seed % 3 != 0);
  params.heavy_cost_share = 0.25;
  return topo::build_as_topology(params, rng);
}

igp::LinkOverlay random_overlay(const topo::AsTopology& topo, util::Rng& rng) {
  igp::LinkOverlay overlay;
  overlay.down.assign(topo.link_count(), false);
  overlay.cost.assign(topo.link_count(), 0);
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    if (rng.below(12) == 0) overlay.down[l] = true;
    if (rng.below(8) == 0) {
      overlay.cost[l] = 1 + static_cast<std::uint32_t>(rng.below(10));
    }
  }
  if (overlay.trivial()) overlay = igp::LinkOverlay{};  // canonical form
  return overlay;
}

// Walks a chain of random overlay transitions (downs appearing/clearing,
// metrics rising/falling, back to trivial), as cycle evolution does, and
// checks each cycle's state against the reference full recompute on the
// overlay-priced topology. May partition the topology — the rows must
// survive unreachable regions.
TEST(ReconvergeDelta, MatchesFullRecomputeAcrossOverlayTransitions) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const topo::AsTopology topo = random_topology(seed);
    util::Rng rng(seed * 977 + 5);
    for (int step = 0; step < 5; ++step) {
      // Last step returns to trivial: the "failure repaired" transition.
      const igp::LinkOverlay now =
          step == 4 ? igp::LinkOverlay{} : random_overlay(topo, rng);
      const igp::IgpState state = igp::IgpState::compute(
          topo, nullptr, now.trivial() ? nullptr : &now);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " step=" + std::to_string(step));
      test::expect_matches_reference(test::with_costs(topo, now), state,
                                     now.down.empty() ? nullptr : &now.down,
                                     seed * 10 + step);
    }
  }
}

// Building a cycle state computes no SPF row, and two states under the same
// overlay answer identically however their rows were filled.
TEST(ReconvergeDelta, IdenticalOverlayRecomputesNothing) {
  const topo::AsTopology topo = random_topology(3);
  util::Rng rng(99);
  const igp::LinkOverlay overlay = random_overlay(topo, rng);
  const igp::LinkOverlay* o = overlay.trivial() ? nullptr : &overlay;
  obs::Counter& rows = obs::registry().counter("igp.spf_rows_computed");
  const std::uint64_t before = rows.value();
  const igp::IgpState base = igp::IgpState::compute(topo, nullptr, o);
  const igp::IgpState same = igp::IgpState::compute(topo, nullptr, o);
  EXPECT_EQ(rows.value(), before);
  for (topo::RouterId d = topo.router_count(); d-- > 0;) {
    same.distance(0, d);  // fill `same` in reverse destination order
  }
  EXPECT_TRUE(test::same_rows(same, base));
  EXPECT_EQ(rows.value(), before + 2 * topo.router_count());
}

// --- RsvpTePlane arena reuse ------------------------------------------------

// A steady month-over-month mutation workload must stop allocating once the
// scratch arena's high-water mark is reached: capacity after a couple of
// cycles equals capacity after a hundred.
TEST(RsvpArena, ScratchCapacityStopsGrowingAcrossRestoreCycles) {
  topo::AsTopology topo(1);
  const auto a = topo.add_router(ip(1), topo::Vendor::kJuniper, true);
  const auto b = topo.add_router(ip(2), topo::Vendor::kJuniper, false);
  const auto c = topo.add_router(ip(3), topo::Vendor::kJuniper, false);
  const auto d = topo.add_router(ip(4), topo::Vendor::kJuniper, true);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(a, c, ip(103), ip(104), 1);
  topo.add_link(b, d, ip(105), ip(106), 1);
  topo.add_link(c, d, ip(107), ip(108), 1);
  const igp::IgpState igp = igp::IgpState::compute(topo);
  std::vector<mpls::LabelPool> pools;
  for (std::size_t i = 0; i < topo.router_count(); ++i) {
    pools.emplace_back(topo::Vendor::kJuniper, i * 17 + 1);
  }

  mpls::RsvpTePlane plane(&topo, &igp, {});
  util::Rng rng(5);
  const auto ids = plane.signal(a, d, 6, pools, rng);
  plane.mark_pristine();

  std::size_t cap_after_warmup = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (const mpls::LspId id : ids) plane.reoptimize(id, pools);
    EXPECT_GT(plane.scratch_arena().used(), 0u);
    plane.restore_pristine();
    EXPECT_EQ(plane.scratch_arena().used(), 0u);
    if (cycle == 1) cap_after_warmup = plane.scratch_arena().capacity();
  }
  EXPECT_GT(cap_after_warmup, 0u);
  EXPECT_EQ(plane.scratch_arena().capacity(), cap_after_warmup);
}

TEST(RsvpArena, RestorePristineRewindsLspState) {
  topo::AsTopology topo(1);
  const auto a = topo.add_router(ip(1), topo::Vendor::kJuniper, true);
  const auto b = topo.add_router(ip(2), topo::Vendor::kJuniper, false);
  const auto d = topo.add_router(ip(3), topo::Vendor::kJuniper, true);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(b, d, ip(103), ip(104), 1);
  const igp::IgpState igp = igp::IgpState::compute(topo);
  std::vector<mpls::LabelPool> pools;
  for (std::size_t i = 0; i < topo.router_count(); ++i) {
    pools.emplace_back(topo::Vendor::kJuniper, i + 3);
  }

  mpls::RsvpTePlane plane(&topo, &igp, {});
  util::Rng rng(2);
  const auto ids = plane.signal(a, d, 2, pools, rng);
  plane.mark_pristine();

  std::vector<std::vector<mpls::TeHop>> pristine_hops;
  for (const mpls::LspId id : ids) {
    const auto hops = plane.lsp(id).hops;
    pristine_hops.emplace_back(hops.begin(), hops.end());
  }

  // Mutate twice (double reoptimize exercises the one-shot undo guard),
  // then roll back.
  for (const mpls::LspId id : ids) {
    plane.reoptimize(id, pools);
    plane.reoptimize(id, pools);
  }
  EXPECT_EQ(plane.lsp(ids[0]).resignal_count, 2u);
  plane.restore_pristine();

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const mpls::TeLsp& lsp = plane.lsp(ids[i]);
    EXPECT_EQ(lsp.resignal_count, 0u);
    ASSERT_EQ(lsp.hops.size(), pristine_hops[i].size());
    for (std::size_t h = 0; h < lsp.hops.size(); ++h) {
      EXPECT_EQ(lsp.hops[h], pristine_hops[i][h]);
    }
  }
}

// --- DeltaEvolver vs instantiate oracle ------------------------------------

gen::GenConfig churny_config() {
  gen::GenConfig c;
  c.background_tier1 = 1;
  c.background_transit = 6;
  c.stub_ases = 8;
  c.monitors = 4;
  c.dests_per_monitor = 60;
  c.churn.link_down_prob = 0.02;
  c.churn.metric_change_prob = 0.03;
  c.churn.router_down_prob = 0.01;
  c.churn.te_resignal_prob = 0.2;
  return c;
}

std::string snapshot_bytes(const gen::CampaignRunner& runner,
                           gen::MonthContext& ctx, int cycle) {
  return dataset::serialize_pack(runner.snapshot(ctx, cycle, 0));
}

// Evolving through cycles — contiguously and across gaps — lands on a world
// byte-identical to a from-scratch instantiate of the same cycle.
TEST(DeltaEvolver, EvolvedWorldMatchesInstantiateOracle) {
  const gen::GenConfig config = churny_config();
  const gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const gen::CampaignRunner runner(internet, ip2as);

  gen::DeltaEvolver evolver(internet);
  int prev_cycle = -1;
  for (const int cycle : {0, 1, 2, 3, 9, 10, 30}) {  // gaps included
    gen::MonthContext& evolved = evolver.evolve_to(cycle);
    EXPECT_EQ(evolver.last_stats().cycle, cycle);
    EXPECT_EQ(evolver.last_stats().full_build, prev_cycle < 0);
    if (prev_cycle >= 0) {
      EXPECT_EQ(evolver.last_stats().ases_total,
                evolver.last_stats().ases_rebuilt +
                    evolver.last_stats().ases_restored);
    }
    gen::MonthContext fresh = internet.instantiate(cycle);
    EXPECT_EQ(snapshot_bytes(runner, evolved, cycle),
              snapshot_bytes(runner, fresh, cycle))
        << "cycle=" << cycle;
    prev_cycle = cycle;
  }
}

// A TE re-signalling epoch with no link churn: the epoch alone must rebuild
// the AS, since its label burn shifts every TE label drawn after it.
TEST(DeltaEvolver, ResignalEpochAloneRebuildsPlanes) {
  gen::GenConfig config = churny_config();
  config.churn = {};
  config.churn.te_resignal_prob = 0.5;
  const gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const gen::CampaignRunner runner(internet, ip2as);

  gen::DeltaEvolver evolver(internet);
  std::size_t rebuilt = 0;
  for (int cycle = 0; cycle <= 6; ++cycle) {
    gen::MonthContext& evolved = evolver.evolve_to(cycle);
    EXPECT_EQ(evolver.last_stats().links_down, 0u);
    if (cycle > 0) rebuilt += evolver.last_stats().ases_rebuilt;
    gen::MonthContext fresh = internet.instantiate(cycle);
    EXPECT_EQ(snapshot_bytes(runner, evolved, cycle),
              snapshot_bytes(runner, fresh, cycle))
        << "cycle=" << cycle;
  }
  EXPECT_GT(rebuilt, 0u);
}

// A backward jump cannot be expressed as a delta; the evolver must fall back
// to a full rebuild and still be correct.
TEST(DeltaEvolver, BackwardJumpFallsBackToFullBuild) {
  const gen::GenConfig config = churny_config();
  const gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const gen::CampaignRunner runner(internet, ip2as);

  gen::DeltaEvolver evolver(internet);
  evolver.evolve_to(5);
  gen::MonthContext& back = evolver.evolve_to(2);
  EXPECT_TRUE(evolver.last_stats().full_build);
  gen::MonthContext fresh = internet.instantiate(2);
  EXPECT_EQ(snapshot_bytes(runner, back, 2), snapshot_bytes(runner, fresh, 2));
}

// The full month (cycle snapshot + extra snapshots + label dynamics) agrees
// between the evolver path and the from-scratch path.
TEST(DeltaEvolver, MonthDataMatchesFreshMonth) {
  const gen::GenConfig config = churny_config();
  const gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const gen::CampaignRunner runner(internet, ip2as);

  gen::DeltaEvolver evolver(internet);
  for (const int cycle : {1, 2, 6}) {
    const dataset::MonthData evolved = runner.month(evolver, cycle);
    const dataset::MonthData fresh = runner.month(cycle);
    ASSERT_EQ(evolved.snapshots.size(), fresh.snapshots.size());
    for (std::size_t i = 0; i < fresh.snapshots.size(); ++i) {
      EXPECT_EQ(dataset::serialize_pack(evolved.snapshots[i]),
                dataset::serialize_pack(fresh.snapshots[i]))
          << "cycle=" << cycle << " snapshot=" << i;
    }
  }
}

// A retried cycle asks the evolver for the cycle it already holds, after a
// whole month (extra-snapshot flaps, label dynamics) ran on the context. It
// must get the fresh month again, not the one the failed attempt left.
TEST(DeltaEvolver, RepeatedMonthOfOneCycleMatchesFreshMonth) {
  const gen::GenConfig config = churny_config();
  const gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const gen::CampaignRunner runner(internet, ip2as);

  gen::DeltaEvolver evolver(internet);
  for (const int cycle : {0, 3, 4}) {  // a full build, a jump, a step
    runner.month(evolver, cycle);
    const dataset::MonthData again = runner.month(evolver, cycle);
    const dataset::MonthData fresh = runner.month(cycle);
    ASSERT_EQ(again.snapshots.size(), fresh.snapshots.size());
    for (std::size_t i = 0; i < fresh.snapshots.size(); ++i) {
      EXPECT_TRUE(dataset::serialize_pack(again.snapshots[i]) ==
                  dataset::serialize_pack(fresh.snapshots[i]))
          << "cycle=" << cycle << " snapshot=" << i;
    }
  }
}

// The cycle snapshot applies sub-0 flaps twice (once settling the month,
// once probing it). The second call keeps each AS's post-failure IGP state
// and the rows it already computed.
TEST(MonthContext, RepeatedSubZeroFlapsComputeNoRows) {
  const gen::GenConfig config = churny_config();
  const gen::Internet internet(config);
  gen::MonthContext ctx = internet.instantiate(2);  // applies sub 0

  std::vector<const igp::IgpState*> before;
  bool any_failure = false;
  for (const std::uint32_t asn : internet.modeled_asns()) {
    const probe::AsDataPlane* plane = ctx.plane_of(asn);
    before.push_back(plane->igp);
    // A post-failure state excludes more links than the cycle overlay.
    const gen::ModeledAs& as = *internet.modeled(asn);
    any_failure |=
        plane->igp->link_down() != internet.overlay_at(as, asn, 2).down;
    plane->igp->distance(0, 0);  // force one row per state
  }
  ASSERT_TRUE(any_failure) << "no AS has sub-0 failures; test is vacuous";

  obs::Counter& rows = obs::registry().counter("igp.spf_rows_computed");
  const std::uint64_t rows_before = rows.value();
  ctx.apply_flaps(/*sub_index=*/0, config.ecmp_flap_prob);
  std::size_t i = 0;
  for (const std::uint32_t asn : internet.modeled_asns()) {
    const probe::AsDataPlane* plane = ctx.plane_of(asn);
    EXPECT_EQ(plane->igp, before[i++]) << "AS " << asn;
    plane->igp->distance(0, 0);
  }
  EXPECT_EQ(rows.value(), rows_before);
}

// --- Runner-level parity ----------------------------------------------------

run::RunnerConfig evolve_runner(int cycles, int threads) {
  run::RunnerConfig c;
  c.gen = churny_config();
  c.first_cycle = 0;
  c.last_cycle = cycles - 1;
  c.threads = threads;
  return c;
}

// The rebuild oracle: every cycle instantiated from scratch through
// Runner::run_cycle, in cycle order.
lpr::LongitudinalReport rebuild_oracle(const run::Runner& runner) {
  lpr::LongitudinalReport report;
  for (int c = runner.config().first_cycle; c <= runner.config().last_cycle;
       ++c) {
    report.cycles.push_back(runner.run_cycle(c));
  }
  return report;
}

// Delta-vs-rebuild parity across seeds: the whole longitudinal report, not
// just one snapshot, is byte-identical to per-cycle from-scratch rebuilds.
TEST(EvolveRunner, ReportMatchesRebuildOracleAcrossSeeds) {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{20151028}}) {
    auto config = evolve_runner(/*cycles=*/6, /*threads=*/2);
    config.gen.seed = seed;
    const run::Runner runner(config);
    const auto evolved = runner.run_all_contained();
    ASSERT_TRUE(evolved.manifest.complete()) << "seed=" << seed;
    EXPECT_EQ(evolved.report.to_json(), rebuild_oracle(runner).to_json())
        << "seed=" << seed;
  }
}

// The delta path runs cycles serially against one standing world; its output
// must not depend on how much the inner stages parallelize.
TEST(EvolveRunner, ByteIdenticalAtAnyThreadCount) {
  const auto baseline =
      run::Runner(evolve_runner(5, /*threads=*/1)).run_all_contained();
  const std::string expected = baseline.report.to_json();
  for (const int threads : {4, 16}) {
    const auto got =
        run::Runner(evolve_runner(5, threads)).run_all_contained();
    EXPECT_EQ(got.report.to_json(), expected) << "threads=" << threads;
  }
}

TEST(EvolveRunner, ManifestRecordsDeltaAccounting) {
  const auto outcome =
      run::Runner(evolve_runner(4, /*threads=*/1)).run_all_contained();
  ASSERT_EQ(outcome.manifest.cycles.size(), 4u);
  EXPECT_EQ(outcome.manifest.cycles[0].delta.cycle, 0);
  EXPECT_TRUE(outcome.manifest.cycles[0].delta.full_build);
  for (int c = 1; c < 4; ++c) {
    const gen::CycleDeltaStats& delta = outcome.manifest.cycles[c].delta;
    EXPECT_EQ(delta.cycle, c);
    EXPECT_FALSE(delta.full_build) << "cycle " << c << " rebuilt from scratch";
    EXPECT_GT(delta.ases_total, 0u);
  }
}

// --- resume onto an evolved world -------------------------------------------

class EvolveResumeTest : public ::testing::Test {
 protected:
  // Pid-suffixed: ctest -j runs each discovered test as its own process,
  // and concurrent same-fixture processes must not share a dir.
  EvolveResumeTest()
      : dir_(fs::temp_directory_path() /
             ("mum_evolve_resume_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~EvolveResumeTest() override { fs::remove_all(dir_); }
  fs::path dir_;
};

// Interrupt a campaign mid-way, resume it, and require (a) byte-identical
// final report and (b) that the recomputed tail runs on an *evolved* world:
// the first recomputed cycle is the only full build, every later one a delta.
TEST_F(EvolveResumeTest, ResumeLandsOnEvolvedWorldByteIdentically) {
  auto config = evolve_runner(/*cycles=*/8, /*threads=*/1);
  config.checkpoint_dir = dir_.string();
  const auto uninterrupted = run::Runner(config).run_all_contained();
  ASSERT_TRUE(uninterrupted.manifest.complete());

  // Drop the tail half of the checkpoints, as if the run died at cycle 4.
  for (int cycle = 4; cycle < 8; ++cycle) {
    fs::remove(dir_ / run::checkpoint_filename(cycle));
  }

  auto resume_config = config;
  resume_config.resume = true;
  const auto resumed = run::Runner(resume_config).run_all_contained();

  EXPECT_EQ(resumed.report.to_json(), uninterrupted.report.to_json());
  ASSERT_EQ(resumed.manifest.cycles.size(), 8u);
  for (int cycle = 0; cycle < 4; ++cycle) {
    EXPECT_EQ(resumed.manifest.cycles[cycle].outcome,
              run::CycleOutcome::kFromCheckpoint);
  }
  // Cycle 4 seeds the standing world (full build); 5..7 evolve from it.
  EXPECT_EQ(resumed.manifest.cycles[4].outcome, run::CycleOutcome::kOk);
  EXPECT_TRUE(resumed.manifest.cycles[4].delta.full_build);
  for (int cycle = 5; cycle < 8; ++cycle) {
    EXPECT_EQ(resumed.manifest.cycles[cycle].outcome, run::CycleOutcome::kOk);
    EXPECT_EQ(resumed.manifest.cycles[cycle].delta.cycle, cycle);
    EXPECT_FALSE(resumed.manifest.cycles[cycle].delta.full_build)
        << "resumed cycle " << cycle << " should be a delta step";
  }
}

// --- daily_month standing-context reuse --------------------------------------

// daily_month now rolls one standing context through the days; it must stay
// byte-identical to the per-day re-instantiate it replaced.
TEST(DailyMonth, MatchesPerDayReinstantiation) {
  gen::GenConfig config = churny_config();
  const gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const gen::CampaignRunner runner(internet, ip2as);

  // Cycle 27 (April 2012) sits inside a deployment ramp, so day-resolved
  // profiles actually differ day to day — the evolver's day step takes the
  // rebuild path.
  const int cycle = 27;
  const int days = 5;
  const auto daily = runner.daily_month(cycle, days);
  ASSERT_EQ(daily.size(), static_cast<std::size_t>(days));

  for (int day = 1; day <= days; ++day) {
    gen::MonthContext ctx = internet.instantiate(cycle, day);
    if (day > 1) ctx.advance_dynamics();

    gen::CampaignConfig day_config = runner.config();
    const double wobble =
        0.7 + 0.3 * (static_cast<double>(
                         util::mix64(util::hash_combine(cycle, day)) % 1000) /
                     999.0);
    day_config.monitor_share = runner.config().monitor_share * wobble;
    dataset::SnapshotBatch ref =
        runner.snapshot(ctx, cycle, day - 1, day_config);
    ref.date = daily[static_cast<std::size_t>(day - 1)].date;

    EXPECT_EQ(dataset::serialize_pack(daily[static_cast<std::size_t>(
                  day - 1)]),
              dataset::serialize_pack(ref))
        << "day=" << day;
  }
}

// --- scale knobs -------------------------------------------------------------

// `--scale routers=N,lsps=M` must actually deliver the targets: enough
// background routers, and a TE mesh dense enough to carry the LSP count.
TEST(Scale, WorldReachesRouterAndLspTargets) {
  gen::GenConfig config;
  config.background_tier1 = 1;
  config.stub_ases = 8;
  config.monitors = 2;
  config.dests_per_monitor = 20;
  config.scale_routers = 2000;
  config.scale_lsps = 20000;
  const gen::Internet internet(config);

  std::uint64_t routers = 0;
  for (const std::uint32_t asn : internet.modeled_asns()) {
    routers += internet.modeled(asn)->topo.router_count();
  }
  EXPECT_GE(routers, 2000u * 8 / 10);

  const gen::MonthContext ctx = internet.instantiate(0);
  std::uint64_t lsps = 0;
  for (const std::uint32_t asn : internet.modeled_asns()) {
    const probe::AsDataPlane* plane = ctx.plane_of(asn);
    if (plane != nullptr && plane->rsvp != nullptr) {
      lsps += plane->rsvp->lsp_count();
    }
  }
  EXPECT_GE(lsps, 20000u * 8 / 10);
}

}  // namespace
}  // namespace mum
