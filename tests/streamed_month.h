// The equality the streamed and materialized front ends are held to.
//
// The streamed month is run::extract_streamed_month, the function the run
// loop calls; the materialized one is CampaignRunner::month +
// lpr::extract_month (lpr::extract_lsps per snapshot).
// expect_same_extraction() compares two extracted snapshots' LSP tables
// row by row (every field and the content hash) and every ExtractStats
// counter.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "core/extract.h"

namespace mum::test {

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
