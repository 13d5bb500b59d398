// The flat LSP table against the object-based oracle (lpr_reference.h) on
// generated months: the default world and the --small world at cycles 0,
// 10 and 50, materialized and streamed, at 1 and 4 threads, plus a month
// damaged by every chaos fault at 2%. Each check compares the extraction
// row by row (content hashes included), the FilterStats and dynamic ASes,
// and every IotpRecord before and after classification.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "chaos/chaos.h"
#include "core/alias.h"
#include "core/extract.h"
#include "dataset/pack.h"
#include "dataset/snapshot_source.h"
#include "gen/campaign.h"
#include "gen/evolve.h"
#include "gen/internet.h"
#include "lpr_reference.h"
#include "run/runner.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mum::lpr {
namespace {

gen::GenConfig world_config(bool small) {
  gen::GenConfig config;
  if (small) {  // the CLI's --small world
    config.background_transit = 8;
    config.stub_ases = 12;
    config.monitors = 6;
    config.dests_per_monitor = 150;
  }
  return config;
}

std::vector<reference::ExtractedSnapshot> oracle_month(
    const dataset::MonthData& month, const dataset::Ip2As& ip2as) {
  std::vector<reference::ExtractedSnapshot> out;
  for (const dataset::SnapshotBatch& snapshot : month.snapshots) {
    out.push_back(reference::extract_lsps(snapshot, ip2as));
  }
  return out;
}

enum class World : int { kDefault, kSmall };

// GoogleTest names each case after the bytes of its parameter, so the
// struct must have no padding: padding bytes are indeterminate and would
// make the listed test names differ from build to build.
struct WorldCase {
  World world = World::kDefault;
  int cycle = 0;
};
static_assert(std::has_unique_object_representations_v<WorldCase>);

class LprOracle : public testing::TestWithParam<WorldCase> {};

TEST_P(LprOracle, MaterializedAndStreamedMatchOracle) {
  const WorldCase param = GetParam();
  const gen::Internet internet(world_config(param.world == World::kSmall));
  const dataset::Ip2As ip2as = internet.build_ip2as();
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    util::ThreadPool pool(threads);
    const gen::CampaignRunner campaign(internet, ip2as, {}, &pool);
    gen::DeltaEvolver materialized_world(internet, &pool);
    const dataset::MonthData month =
        campaign.month(materialized_world, param.cycle);
    const auto oracle = oracle_month(month, ip2as);
    ASSERT_GT(oracle.front().observations.size(), 0u);
    {
      SCOPED_TRACE("materialized");
      reference::expect_same_pipeline(extract_month(month, ip2as, &pool),
                                      oracle);
    }
    {
      SCOPED_TRACE("streamed");
      gen::DeltaEvolver streamed_world(internet, &pool);
      reference::expect_same_pipeline(
          run::extract_streamed_month(campaign, streamed_world, param.cycle,
                                      campaign.config()),
          oracle);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, LprOracle,
    testing::Values(WorldCase{World::kDefault, 0},
                    WorldCase{World::kDefault, 10},
                    WorldCase{World::kDefault, 50},
                    WorldCase{World::kSmall, 0}, WorldCase{World::kSmall, 10},
                    WorldCase{World::kSmall, 50}),
    [](const testing::TestParamInfo<WorldCase>& info) {
      return std::string(info.param.world == World::kSmall ? "Small"
                                                           : "Default") +
             "Cycle" + std::to_string(info.param.cycle);
    });

// Router-level IOTPs (Sec. 5): alias inference over the filtered table and
// the cycle's traces, endpoints rewritten, regrouped — against the oracle's
// rewrite of its own filtered observations under the same resolver.
TEST(LprOracleRouterLevel, DefaultWorldRegroupsLikeOracle) {
  const gen::Internet internet(world_config(false));
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const dataset::MonthData month =
      gen::CampaignRunner(internet, ip2as).month(50);
  const auto extracted = extract_month(month, ip2as);
  const auto oracle = oracle_month(month, ip2as);
  const FilteredCycle filtered = apply_filters(
      extracted.front(), {extracted.begin() + 1, extracted.end()}, {});
  const reference::FilteredCycle oracle_filtered = reference::apply_filters(
      oracle.front(), {oracle.begin() + 1, oracle.end()}, {});
  reference::expect_same_filtered(filtered, oracle_filtered);

  const LabelAliasResolver resolver(filtered.observations,
                                    month.cycle().traces);
  ASSERT_FALSE(resolver.alias_sets().empty());
  auto got = group_iotps(to_router_level(filtered.observations, resolver));
  auto want = reference::group_iotps(
      reference::to_router_level(oracle_filtered.observations, resolver));
  EXPECT_LT(got.size(), group_iotps(filtered.observations).size());
  classify_all(got);
  classify_all(want);
  reference::expect_same_records(got, want);
}

// Every chaos fault at 2%, applied the way the Runner damages a month:
// a serialized pack with flipped bytes goes through tolerant decode and
// re-annotation, then the structural faults rewrite the survivors.
TEST(LprOracleChaos, DamagedMonthMatchesOracle) {
  const gen::Internet internet(world_config(true));
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const std::optional<chaos::ChaosConfig> spec =
      chaos::parse_chaos_spec("all=2%");
  ASSERT_TRUE(spec.has_value());
  for (const int cycle : {10, 50}) {
    SCOPED_TRACE(testing::Message() << "cycle=" << cycle);
    chaos::Corruptor corruptor(*spec);
    dataset::MonthData month = gen::CampaignRunner(internet, ip2as).month(cycle);
    for (std::size_t sub = 0; sub < month.snapshots.size(); ++sub) {
      dataset::SnapshotBatch& snapshot = month.snapshots[sub];
      std::string bytes = dataset::serialize_pack(snapshot);
      corruptor.corrupt_bytes(
          bytes, util::hash_combine(static_cast<std::uint64_t>(cycle), sub));
      auto salvaged = dataset::decode_snapshot(
          bytes, dataset::DecodeOptions{.tolerant = true}, nullptr);
      if (salvaged) {
        salvaged->cycle_id = snapshot.cycle_id;
        salvaged->sub_index = snapshot.sub_index;
        salvaged->date = snapshot.date;
        ip2as.annotate(salvaged->traces);
        snapshot = std::move(*salvaged);
      } else {
        snapshot.traces.clear();
      }
      corruptor.corrupt(snapshot);
    }
    EXPECT_GT(corruptor.stats().total(), 0u);
    reference::expect_same_pipeline(extract_month(month, ip2as),
                                    oracle_month(month, ip2as));
  }
}

}  // namespace
}  // namespace mum::lpr
