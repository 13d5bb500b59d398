#include "gen/campaign.h"

#include <gtest/gtest.h>

#include "core/filters.h"
#include "gen/evolve.h"
#include "obs/telemetry.h"
#include "run/runner.h"
#include "streamed_month.h"
#include "trace_builder.h"
#include "util/thread_pool.h"

#include <set>
#include <unordered_set>

namespace mum::gen {
namespace {

GenConfig small_config() {
  GenConfig c;
  c.background_tier1 = 1;
  c.background_transit = 6;
  c.stub_ases = 8;
  c.monitors = 4;
  c.dests_per_monitor = 60;
  return c;
}

class CampaignTest : public ::testing::Test {
 protected:
  CampaignTest()
      : internet(small_config()),
        ip2as(internet.build_ip2as()),
        runner(internet, ip2as) {}
  Internet internet;
  dataset::Ip2As ip2as;
  CampaignRunner runner;
};

TEST_F(CampaignTest, SnapshotHasExpectedTraceVolume) {
  MonthContext ctx = internet.instantiate(50);
  const auto snap = runner.snapshot(ctx, 50, 0);
  // 4 monitors x 60 destination /24s x probes_per_dest addresses.
  EXPECT_EQ(snap.trace_count(),
            4u * 60u *
                static_cast<std::size_t>(internet.config().probes_per_dest));
  EXPECT_EQ(snap.cycle_id, 50u);
  EXPECT_EQ(snap.date, "2014-03");
}

TEST_F(CampaignTest, TracesAreAnnotated) {
  MonthContext ctx = internet.instantiate(50);
  const auto snap = runner.snapshot(ctx, 50, 0);
  int annotated_hops = 0;
  for (const auto& t : test::specs_of(snap.traces)) {
    EXPECT_NE(t.dst_asn, 0u);
    for (const auto& h : t.hops) {
      if (!h.anonymous() && h.asn != 0) ++annotated_hops;
    }
  }
  EXPECT_GT(annotated_hops, 500);
}

TEST_F(CampaignTest, SomeTracesCrossExplicitTunnels) {
  MonthContext ctx = internet.instantiate(50);
  const auto snap = runner.snapshot(ctx, 50, 0);
  int tunneled = 0;
  for (std::size_t i = 0; i < snap.trace_count(); ++i) {
    tunneled += snap.traces.view(i).crosses_explicit_tunnel() ? 1 : 0;
  }
  EXPECT_GT(tunneled, 20);
  EXPECT_LT(tunneled, static_cast<int>(snap.trace_count()));
}

TEST_F(CampaignTest, MonitorShareReducesFleet) {
  MonthContext ctx = internet.instantiate(50);
  CampaignConfig half;
  half.monitor_share = 0.5;
  const auto snap = runner.snapshot(ctx, 50, 0, half);
  std::set<std::uint32_t> monitors;
  for (const std::uint32_t monitor : snap.traces.monitor_col()) {
    monitors.insert(monitor);
  }
  EXPECT_EQ(monitors.size(), 2u);
}

TEST_F(CampaignTest, MonthHasCyclePlusExtras) {
  const auto month = runner.month(50);
  ASSERT_EQ(month.snapshots.size(), 3u);  // cycle + 2
  EXPECT_EQ(month.cycle().sub_index, 0u);
  EXPECT_EQ(month.snapshots[1].sub_index, 1u);
  EXPECT_EQ(month.cycle_id, 50u);
  // Snapshots probe the same destination list.
  EXPECT_EQ(month.snapshots[0].trace_count(),
            month.snapshots[1].trace_count());
}

TEST_F(CampaignTest, CampaignDeterministicForSameSeed) {
  const auto m1 = runner.month(40);
  Internet other(small_config());
  const auto other_ip2as = other.build_ip2as();
  const auto m2 = CampaignRunner(other, other_ip2as).month(40);
  ASSERT_EQ(m1.cycle().trace_count(), m2.cycle().trace_count());
  const auto traces1 = test::specs_of(m1.cycle().traces);
  const auto traces2 = test::specs_of(m2.cycle().traces);
  for (std::size_t i = 0; i < traces1.size(); ++i) {
    const auto& a = traces1[i];
    const auto& b = traces2[i];
    ASSERT_EQ(a.hops.size(), b.hops.size());
    for (std::size_t h = 0; h < a.hops.size(); ++h) {
      EXPECT_EQ(a.hops[h].addr, b.hops[h].addr);
      EXPECT_EQ(a.hops[h].labels, b.hops[h].labels);
    }
  }
}

// The content hashes of a snapshot's LSPs.
std::unordered_set<std::uint64_t> content_set(
    const ::mum::lpr::ExtractedSnapshot& snapshot) {
  std::unordered_set<std::uint64_t> out;
  for (const auto& row : snapshot.observations.rows()) {
    out.insert(row.content_hash);
  }
  return out;
}

TEST_F(CampaignTest, MostLspContentPersistsAcrossSnapshots) {
  // The Persistence filter depends on high-but-not-total overlap between a
  // month's snapshots.
  const auto month = runner.month(50);
  const auto c0 = ::mum::lpr::extract_lsps(month.snapshots[0], ip2as);
  const auto c1 = ::mum::lpr::extract_lsps(month.snapshots[1], ip2as);
  const auto set1 = content_set(c1);
  std::size_t kept = 0;
  std::size_t total = 0;
  for (const auto& row : c0.observations.rows()) {
    if (row.asn == kAsnVodafone) continue;  // dynamic labels churn
    ++total;
    kept += set1.contains(row.content_hash) ? 1 : 0;
  }
  ASSERT_GT(total, 50u);
  const double share = static_cast<double>(kept) / static_cast<double>(total);
  EXPECT_GT(share, 0.45);  // high, but below 1: churn exists to be filtered
  EXPECT_LT(share, 1.0);
}

TEST_F(CampaignTest, VodafoneLabelsChurnBetweenSnapshots) {
  const auto month = runner.month(50);
  const auto c0 = ::mum::lpr::extract_lsps(month.snapshots[0], ip2as);
  const auto c1 = ::mum::lpr::extract_lsps(month.snapshots[1], ip2as);
  const auto set1 = content_set(c1);
  std::size_t kept = 0, total = 0;
  for (const auto& row : c0.observations.rows()) {
    if (row.asn != kAsnVodafone) continue;
    ++total;
    kept += set1.contains(row.content_hash) ? 1 : 0;
  }
  if (total > 0) {
    EXPECT_LT(static_cast<double>(kept) / static_cast<double>(total), 0.2);
  }
}

TEST_F(CampaignTest, DailyMonthGeneratesPerDaySnapshots) {
  const auto days = runner.daily_month(cycle_of(2012, 4), 10);
  ASSERT_EQ(days.size(), 10u);
  EXPECT_EQ(days[0].date, "2012-04-01");
  EXPECT_EQ(days[9].date, "2012-04-10");
  // Fleet size wobbles day to day.
  std::set<std::size_t> volumes;
  for (const auto& d : days) volumes.insert(d.trace_count());
  EXPECT_GT(volumes.size(), 1u);
}

TEST_F(CampaignTest, Level3AppearsMidApril2012) {
  const auto days = runner.daily_month(cycle_of(2012, 4), 30);
  auto level3_lsps = [&](const dataset::SnapshotBatch& snap) {
    const auto extracted = ::mum::lpr::extract_lsps(snap, ip2as);
    std::size_t n = 0;
    for (const auto& row : extracted.observations.rows()) {
      if (row.asn == kAsnLevel3) ++n;
    }
    return n;
  };
  EXPECT_EQ(level3_lsps(days[0]), 0u);    // April 1st
  EXPECT_EQ(level3_lsps(days[13]), 0u);   // April 14th
  EXPECT_GT(level3_lsps(days[29]), 10u);  // April 30th: deployed
  // Ramp: day 20 strictly between the extremes.
  const auto mid = level3_lsps(days[20]);
  EXPECT_GT(mid, 0u);
  EXPECT_LT(mid, level3_lsps(days[29]));
}

// --- the streamed month ----------------------------------------------------

// Streaming a month through extract_block + stitch_blocks equals extracting
// the materialized month, snapshot by snapshot, on the full fleet and on a
// dipped one (monitors outside the share send no block), serially and on a
// pool.
TEST_F(CampaignTest, StreamedMonthMatchesMaterializedMonth) {
  CampaignConfig dip;
  dip.monitor_share = 0.55;
  for (const unsigned threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    const CampaignRunner campaign(internet, ip2as, {}, &pool);
    for (const CampaignConfig& config : {CampaignConfig{}, dip}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " share=" << config.monitor_share);
      DeltaEvolver streamed_world(internet, &pool);
      DeltaEvolver materialized_world(internet, &pool);
      const auto streamed =
          run::extract_streamed_month(campaign, streamed_world, 50, config);
      const auto month = campaign.month(materialized_world, 50, config);
      ASSERT_EQ(streamed.size(), month.snapshots.size());
      for (std::size_t sub = 0; sub < streamed.size(); ++sub) {
        test::expect_same_extraction(
            streamed[sub], lpr::extract_lsps(month.snapshots[sub], ip2as));
      }
      EXPECT_GT(streamed[0].observations.size(), 0u);
    }
  }
}

// lpr::extract_month is extract_lsps per snapshot, in snapshot order, at
// any thread count.
TEST_F(CampaignTest, ExtractMonthMatchesPerSnapshotExtraction) {
  const auto month = runner.month(50);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    util::ThreadPool pool(threads);
    const auto extracted = lpr::extract_month(month, ip2as, &pool);
    ASSERT_EQ(extracted.size(), month.snapshots.size());
    for (std::size_t sub = 0; sub < extracted.size(); ++sub) {
      test::expect_same_extraction(
          extracted[sub], lpr::extract_lsps(month.snapshots[sub], ip2as));
    }
    EXPECT_GT(extracted[0].observations.size(), 0u);
  }
}

TEST(CampaignStream, EmptyMonitorBlocksStreamLikeEmptySnapshots) {
  GenConfig config = small_config();
  config.dests_per_monitor = 0;  // every monitor probes nothing
  const Internet internet(config);
  const auto ip2as = internet.build_ip2as();
  const CampaignRunner campaign(internet, ip2as);
  std::size_t blocks = 0;
  DeltaEvolver streamed_world(internet);
  campaign.stream_month(streamed_world, 50, {},
                        [&](int, std::size_t,
                            const dataset::TraceBatch& block) {
                          EXPECT_TRUE(block.empty());
                          ++blocks;
                        });
  EXPECT_EQ(blocks, 3u * internet.monitors().size());

  DeltaEvolver again(internet);
  DeltaEvolver materialized_world(internet);
  const auto streamed = run::extract_streamed_month(campaign, again, 50, {});
  const auto month = campaign.month(materialized_world, 50);
  ASSERT_EQ(streamed.size(), month.snapshots.size());
  for (std::size_t sub = 0; sub < streamed.size(); ++sub) {
    test::expect_same_extraction(
        streamed[sub], lpr::extract_lsps(month.snapshots[sub], ip2as));
    EXPECT_EQ(streamed[sub].stats.traces_total, 0u);
  }
}

// The streamed path publishes the same probe telemetry as the materialized
// one: one arena reset per active monitor per snapshot, every trace and hop
// counted, and populated arena gauges.
TEST_F(CampaignTest, StreamedMonthPublishesProbeTelemetry) {
  obs::Counter& traces = obs::registry().counter("probe.batch.traces");
  obs::Counter& hops = obs::registry().counter("probe.batch.hops");
  obs::Counter& resets = obs::registry().counter("probe.arena.resets");
  const std::uint64_t traces_before = traces.value();
  const std::uint64_t hops_before = hops.value();
  const std::uint64_t resets_before = resets.value();

  std::uint64_t streamed_traces = 0, streamed_hops = 0;
  DeltaEvolver world(internet);
  runner.stream_month(world, 50, runner.config(),
                      [&](int, std::size_t,
                          const dataset::TraceBatch& block) {
                        streamed_traces += block.trace_count();
                        streamed_hops += block.hop_count();
                      });
  ASSERT_GT(streamed_traces, 0u);
  EXPECT_EQ(traces.value() - traces_before, streamed_traces);
  EXPECT_EQ(hops.value() - hops_before, streamed_hops);
  EXPECT_EQ(resets.value() - resets_before, 3u * internet.monitors().size());
  const std::int64_t capacity =
      obs::registry().gauge("probe.arena.capacity_bytes").value();
  const std::int64_t high_water =
      obs::registry().gauge("probe.arena.high_water_bytes").value();
  EXPECT_GT(high_water, 0);
  EXPECT_GE(capacity, high_water);
}

}  // namespace
}  // namespace mum::gen
