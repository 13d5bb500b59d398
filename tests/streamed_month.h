// Test-only consumer of the streamed month, and the equality the streamed
// and materialized front ends are held to.
//
// streamed_month() drives gen::CampaignRunner::stream_month with
// lpr::extract_block as the sink and stitches each snapshot's blocks in
// monitor order, over the public API the run loop uses. The materialized
// oracle is CampaignRunner::month + lpr::extract_lsps per snapshot;
// expect_same_extraction() compares the LSP tables row by row (every field
// and the content hash) and every ExtractStats counter.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/extract.h"
#include "dataset/ip2as.h"
#include "gen/campaign.h"
#include "gen/evolve.h"

namespace mum::test {

inline std::vector<lpr::ExtractedSnapshot> streamed_month(
    const gen::CampaignRunner& campaign, gen::DeltaEvolver& evolver,
    int cycle, const gen::CampaignConfig& config,
    const dataset::Ip2As& ip2as) {
  const auto snapshots = static_cast<std::size_t>(config.extra_snapshots) + 1;
  std::vector<std::vector<lpr::ExtractedBlock>> blocks(
      snapshots, std::vector<lpr::ExtractedBlock>(
                     campaign.internet().monitors().size()));
  campaign.stream_month(evolver, cycle, config,
                        [&](int sub, std::size_t monitor,
                            const dataset::TraceBatch& block) {
                          blocks[static_cast<std::size_t>(sub)][monitor] =
                              lpr::extract_block(block, ip2as);
                        });
  std::vector<lpr::ExtractedSnapshot> month;
  for (std::size_t sub = 0; sub < snapshots; ++sub) {
    month.push_back(lpr::stitch_blocks(static_cast<std::uint32_t>(cycle),
                                       static_cast<std::uint32_t>(sub),
                                       gen::cycle_date(cycle), blocks[sub]));
  }
  return month;
}

inline void expect_same_extraction(const lpr::ExtractedSnapshot& got,
                                   const lpr::ExtractedSnapshot& want) {
  EXPECT_EQ(got.cycle_id, want.cycle_id);
  EXPECT_EQ(got.sub_index, want.sub_index);
  EXPECT_EQ(got.date, want.date);
  const lpr::ExtractStats& g = got.stats;
  const lpr::ExtractStats& w = want.stats;
  EXPECT_EQ(g.traces_total, w.traces_total);
  EXPECT_EQ(g.traces_with_explicit_tunnel, w.traces_with_explicit_tunnel);
  EXPECT_EQ(g.lsps_observed, w.lsps_observed);
  EXPECT_EQ(g.lsps_incomplete, w.lsps_incomplete);
  EXPECT_EQ(g.mpls_ips, w.mpls_ips);
  EXPECT_EQ(g.non_mpls_ips, w.non_mpls_ips);
  ASSERT_EQ(got.observations.size(), want.observations.size());
  for (std::size_t i = 0; i < got.observations.size(); ++i) {
    const lpr::LspRow& a = got.observations.row(i);
    const lpr::LspRow& b = want.observations.row(i);
    ASSERT_TRUE(got.observations.lsp(i) == want.observations.lsp(i))
        << "observation " << i;
    EXPECT_EQ(a.egress_labeled, b.egress_labeled);
    EXPECT_EQ(a.dst_asn, b.dst_asn);
    EXPECT_EQ(a.monitor_id, b.monitor_id);
    EXPECT_EQ(a.content_hash, b.content_hash);
  }
}

}  // namespace mum::test
