// Determinism contract of the parallel execution layer: any thread count
// must produce byte-identical output to the serial run, and the ThreadPool
// primitives must behave (every index exactly once, exceptions propagate,
// nested regions run inline).
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/classify.h"
#include "core/extract.h"
#include "core/report.h"
#include "dataset/pack.h"
#include "gen/campaign.h"
#include "gen/evolve.h"
#include "gen/internet.h"
#include "igp/spf.h"
#include "run/runner.h"
#include "spf_reference.h"
#include "streamed_month.h"
#include "topo/builder.h"
#include "util/rng.h"

namespace mum {
namespace {

gen::GenConfig small_config() {
  gen::GenConfig c;
  c.background_tier1 = 1;
  c.background_transit = 6;
  c.stub_ases = 8;
  c.monitors = 4;
  c.dests_per_monitor = 60;
  return c;
}

// --- lazy IGP rows under concurrent first touch -------------------------------

// Four threads query every (router, destination) pair of one fresh state,
// each in its own shuffled order, so rows are raced into their slots; the
// result equals a serial fill. Under TSan this also checks the row
// publication (one acquire load per read, compare-exchange on install).
TEST(IgpRows, ConcurrentFirstTouchMatchesSerialFill) {
  util::Rng rng(7);
  topo::BuildParams params;
  params.asn = 1;
  params.block = net::Ipv4Prefix(net::Ipv4Addr(16, 0, 0, 0), 16);
  params.core_routers = 8;
  params.pop_routers = 40;
  params.parallel_link_prob = 0.3;
  const topo::AsTopology topo = topo::build_as_topology(params, rng);
  std::vector<bool> down(topo.link_count(), false);
  for (std::size_t l = 0; l < down.size(); l += 17) down[l] = true;

  const igp::IgpState raced = igp::IgpState::compute(topo, &down);
  const std::size_t n = topo.router_count();
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::pair<topo::RouterId, topo::RouterId>> pairs;
      for (topo::RouterId s = 0; s < n; ++s) {
        for (topo::RouterId d = 0; d < n; ++d) pairs.emplace_back(s, d);
      }
      util::Rng order(100 + static_cast<std::uint64_t>(t));
      for (std::size_t i = pairs.size(); i > 1; --i) {
        std::swap(pairs[i - 1], pairs[order.below(i)]);
      }
      ++ready;
      while (ready.load() < 4) {
      }
      std::uint64_t sink = 0;
      for (const auto& [s, d] : pairs) {
        sink += raced.distance(s, d) + raced.nexthops(s, d).size();
      }
      EXPECT_GT(sink, 0u);
    });
  }
  for (std::thread& thread : threads) thread.join();

  const igp::IgpState serial = igp::IgpState::compute(topo, &down);
  EXPECT_TRUE(test::same_rows(raced, serial));
}

// --- ThreadPool primitives ---------------------------------------------------

TEST(ThreadPool, VisitsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.for_each_index(kN, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  util::ThreadPool pool(3);
  bool ran = false;
  pool.for_each_index(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::size_t sum = 0;
  pool.for_each_index(10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 45u);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_index(
                   100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // The pool survives a failed job and accepts new work.
  std::atomic<int> count{0};
  pool.for_each_index(50, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, NestedRegionsRunInlineAndComplete) {
  util::ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> counts(kOuter);
  pool.for_each_index(kOuter, [&](std::size_t o) {
    // Would deadlock or oversubscribe if nested calls queued on the pool;
    // they must run inline on the calling worker instead.
    pool.for_each_index(kInner, [&](std::size_t) { ++counts[o]; });
  });
  for (std::size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(counts[o].load(), static_cast<int>(kInner));
  }
}

TEST(ThreadPool, ParallelForWithNullPoolRunsInline) {
  std::size_t sum = 0;
  util::parallel_for(nullptr, 10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 45u);
}

// --- deterministic merges ----------------------------------------------------

TEST(Merge, ExtractStatsSumsAllCounters) {
  lpr::ExtractStats a, b;
  a.traces_total = 10;
  a.traces_with_explicit_tunnel = 4;
  a.lsps_observed = 6;
  a.lsps_incomplete = 1;
  a.mpls_ips = 3;
  a.non_mpls_ips = 7;
  b.traces_total = 5;
  b.traces_with_explicit_tunnel = 2;
  b.lsps_observed = 3;
  b.lsps_incomplete = 2;
  b.mpls_ips = 1;
  b.non_mpls_ips = 4;
  a.merge(b);
  EXPECT_EQ(a.traces_total, 15u);
  EXPECT_EQ(a.traces_with_explicit_tunnel, 6u);
  EXPECT_EQ(a.lsps_observed, 9u);
  EXPECT_EQ(a.lsps_incomplete, 3u);
  EXPECT_EQ(a.mpls_ips, 4u);
  EXPECT_EQ(a.non_mpls_ips, 11u);
}

TEST(Merge, ClassCountsSumsAllClasses) {
  lpr::ClassCounts a, b;
  a.mono_lsp = 1;
  a.multi_fec = 2;
  a.mono_fec = 3;
  a.unclassified = 4;
  a.parallel_links = 1;
  a.routers_disjoint = 2;
  b.mono_lsp = 10;
  b.multi_fec = 20;
  b.mono_fec = 30;
  b.unclassified = 40;
  b.parallel_links = 11;
  b.routers_disjoint = 19;
  a.merge(b);
  EXPECT_EQ(a.mono_lsp, 11u);
  EXPECT_EQ(a.multi_fec, 22u);
  EXPECT_EQ(a.mono_fec, 33u);
  EXPECT_EQ(a.unclassified, 44u);
  EXPECT_EQ(a.parallel_links, 12u);
  EXPECT_EQ(a.routers_disjoint, 21u);
  EXPECT_EQ(a.total(), 110u);
}

// --- serial vs parallel bit-identity -----------------------------------------

std::string snapshot_bytes(const dataset::SnapshotBatch& snap) {
  return dataset::serialize_pack(snap);
}

TEST(Determinism, SnapshotIdenticalAcrossThreadCounts) {
  const gen::Internet internet(small_config());
  const auto ip2as = internet.build_ip2as();

  auto ctx_serial = internet.instantiate(50);
  const auto serial = gen::CampaignRunner(internet, ip2as)
                          .snapshot(ctx_serial, 50, 0);

  util::ThreadPool pool(4);
  auto ctx_parallel = internet.instantiate(50);
  const auto parallel =
      gen::CampaignRunner(internet, ip2as, gen::CampaignConfig{}, &pool)
          .snapshot(ctx_parallel, 50, 0);

  EXPECT_EQ(snapshot_bytes(serial), snapshot_bytes(parallel));
}

TEST(Determinism, ExtractedSnapshotIdenticalAcrossThreadCounts) {
  const gen::Internet internet(small_config());
  const auto ip2as = internet.build_ip2as();
  util::ThreadPool pool(4);

  const auto serial = gen::CampaignRunner(internet, ip2as).month(50);
  const auto parallel =
      gen::CampaignRunner(internet, ip2as, gen::CampaignConfig{}, &pool)
          .month(50);

  ASSERT_EQ(serial.snapshots.size(), parallel.snapshots.size());
  for (std::size_t i = 0; i < serial.snapshots.size(); ++i) {
    const auto es = lpr::extract_lsps(serial.snapshots[i], ip2as);
    const auto ep = lpr::extract_lsps(parallel.snapshots[i], ip2as);
    EXPECT_EQ(es.stats.traces_total, ep.stats.traces_total);
    EXPECT_EQ(es.stats.lsps_observed, ep.stats.lsps_observed);
    EXPECT_EQ(es.stats.lsps_incomplete, ep.stats.lsps_incomplete);
    EXPECT_EQ(es.stats.mpls_ips, ep.stats.mpls_ips);
    ASSERT_EQ(es.observations.size(), ep.observations.size());
    for (std::size_t o = 0; o < es.observations.size(); ++o) {
      EXPECT_EQ(es.observations.row(o).content_hash,
                ep.observations.row(o).content_hash);
    }
  }
}

TEST(Determinism, RunnerCycleReportIdenticalAcrossThreadCounts) {
  run::RunnerConfig serial_config;
  serial_config.gen = small_config();
  serial_config.threads = 1;
  run::RunnerConfig parallel_config = serial_config;
  parallel_config.threads = 4;

  const run::Runner serial(serial_config);
  const run::Runner parallel(parallel_config);
  EXPECT_EQ(serial.threads(), 1);
  EXPECT_EQ(parallel.threads(), 4);

  const auto rs = serial.run_cycle(50);
  const auto rp = parallel.run_cycle(50);
  EXPECT_EQ(rs.to_json(true), rp.to_json(true));
}

TEST(Determinism, RunnerLongitudinalIdenticalAcrossThreadCounts) {
  run::RunnerConfig serial_config;
  serial_config.gen = small_config();
  serial_config.first_cycle = 50;
  serial_config.last_cycle = 52;
  serial_config.threads = 1;
  run::RunnerConfig parallel_config = serial_config;
  parallel_config.threads = 4;

  const auto rs = run::Runner(serial_config).run_all_contained().report;
  const auto rp = run::Runner(parallel_config).run_all_contained().report;
  ASSERT_EQ(rs.cycles.size(), 3u);
  EXPECT_EQ(rs.to_json(), rp.to_json());
}

// The run loop's front end at 16 threads: every monitor task probes,
// annotates with its own shard's ip2as memo and extracts its block inside
// the fan-out. Under TSan this races the shard state and the sink; the
// stitched month must equal the serial materialized month's extraction.
TEST(Determinism, StreamedMonthAt16ThreadsMatchesSerialMaterialized) {
  const gen::Internet internet(small_config());
  const auto ip2as = internet.build_ip2as();
  util::ThreadPool pool(16);
  const gen::CampaignRunner streaming(internet, ip2as, {}, &pool);
  gen::DeltaEvolver streamed_world(internet, &pool);
  const gen::CampaignRunner serial(internet, ip2as);
  gen::DeltaEvolver serial_world(internet);
  for (const int cycle : {50, 51}) {
    const auto streamed = run::extract_streamed_month(
        streaming, streamed_world, cycle, streaming.config());
    const auto month = serial.month(serial_world, cycle);
    ASSERT_EQ(streamed.size(), month.snapshots.size());
    for (std::size_t sub = 0; sub < streamed.size(); ++sub) {
      test::expect_same_extraction(
          streamed[sub], lpr::extract_lsps(month.snapshots[sub], ip2as));
    }
  }
}

// The Runner streams clean cycles and materializes in run_cycle: with a
// fleet dip in the range, both give the same per-cycle reports (extract
// counters and IOTPs included) at 1 and 4 threads.
TEST(Determinism, RunnerStreamedCyclesMatchRunCycleWithFleetDip) {
  for (const int threads : {1, 4}) {
    run::RunnerConfig config;
    config.gen = small_config();
    config.first_cycle = 50;
    config.last_cycle = 52;
    config.fleet_share_by_cycle = {{51, 0.55}};
    config.threads = threads;
    const run::Runner runner(config);
    const auto outcome = runner.run_all_contained();
    ASSERT_EQ(outcome.report.cycles.size(), 3u);
    for (int cycle = 50; cycle <= 52; ++cycle) {
      const auto& streamed =
          outcome.report.cycles[static_cast<std::size_t>(cycle - 50)];
      EXPECT_EQ(streamed.to_json(true), runner.run_cycle(cycle).to_json(true))
          << "threads=" << threads << " cycle=" << cycle;
    }
    EXPECT_LT(outcome.report.cycles[1].extract_stats.traces_total,
              outcome.report.cycles[0].extract_stats.traces_total);
  }
}

TEST(Determinism, ClassifyAllShardedMatchesSerial) {
  const gen::Internet internet(small_config());
  const auto ip2as = internet.build_ip2as();
  util::ThreadPool pool(4);

  // Two independent pipeline runs over the same month, one sharded.
  const auto month = gen::CampaignRunner(internet, ip2as).month(50);
  const auto serial = lpr::run_pipeline(lpr::extract_month(month, ip2as));
  const auto parallel = lpr::run_pipeline(
      lpr::extract_month(month, ip2as, &pool), {}, &pool);
  EXPECT_EQ(serial.to_json(true), parallel.to_json(true));
}

}  // namespace
}  // namespace mum
