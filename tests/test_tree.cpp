#include "core/tree.h"

#include "core/filters.h"

#include <gtest/gtest.h>

#include "lpr_reference.h"

namespace mum::lpr {
namespace {

using reference::LspObservation;
using reference::table_of;

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

LspObservation obs(std::uint32_t ingress, std::uint32_t egress,
                   std::vector<std::pair<std::uint32_t, std::uint32_t>> hops,
                   std::uint32_t dst_asn = 9) {
  LspObservation o;
  o.lsp.asn = 65001;
  o.lsp.ingress = ip(ingress);
  o.lsp.egress = ip(egress);
  for (const auto& [addr, label] : hops) {
    o.lsp.lsrs.push_back(LsrHop{ip(addr), {label}});
  }
  o.dst_asn = dst_asn;
  return o;
}

std::vector<EgressTree> trees_of(
    const std::vector<LspObservation>& observations) {
  return build_egress_trees(table_of(observations));
}

TEST(EgressTree, GroupsByEgressNotIngress) {
  // Two LSPs with different ingresses toward the same egress join one tree.
  const auto trees = trees_of(
      {obs(1, 100, {{10, 500}}), obs(2, 100, {{11, 501}}),
       obs(3, 200, {{12, 700}})});
  ASSERT_EQ(trees.size(), 2u);
  const auto& t100 =
      trees[0].key.egress == ip(100) ? trees[0] : trees[1];
  EXPECT_EQ(t100.branches.size(), 2u);
  EXPECT_EQ(t100.ingresses.size(), 2u);
}

TEST(EgressTree, SingleBranchClass) {
  const auto trees = trees_of({obs(1, 100, {{10, 500}})});
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].tree_class, TreeClass::kSingleBranch);
}

TEST(EgressTree, LdpConsistentTree) {
  // LDP invariant: router 10 shows label 500 regardless of upstream.
  const auto trees = trees_of(
      {obs(1, 100, {{10, 500}}), obs(2, 100, {{10, 500}}),
       obs(3, 100, {{11, 600}, {10, 500}})});
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].tree_class, TreeClass::kLdpConsistent);
  EXPECT_EQ(trees[0].max_labels_per_router, 1);
  // Router 10 is fed from three upstream addresses: in-degree 3.
  EXPECT_EQ(trees[0].max_in_degree, 3);
}

TEST(EgressTree, MultiFecTree) {
  // Router 10 shows two labels toward the same egress: RSVP-TE.
  const auto trees = trees_of(
      {obs(1, 100, {{10, 500}}), obs(2, 100, {{10, 501}})});
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].tree_class, TreeClass::kMultiFec);
  EXPECT_EQ(trees[0].max_labels_per_router, 2);
}

TEST(EgressTree, CrossIngressMultiFecInvisibleToIotpIndexing) {
  // The Sec.-5 gain: two branches from DIFFERENT ingresses with different
  // labels at a shared router. IOTP indexing puts them in separate IOTPs
  // (both Mono-LSP); tree indexing exposes the multiple FECs.
  const std::vector<LspObservation> observations = {
      obs(1, 100, {{10, 500}}), obs(2, 100, {{10, 501}})};
  const auto iotps = group_iotps(table_of(observations));
  EXPECT_EQ(iotps.size(), 2u);  // fragmented under IOTP indexing
  const auto trees = trees_of(observations);
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].tree_class, TreeClass::kMultiFec);
}

TEST(EgressTree, DeduplicatesBranches) {
  const auto o = obs(1, 100, {{10, 500}});
  const auto trees = trees_of({o, o, o});
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].branches.size(), 1u);
}

TEST(EgressTree, SeparateAsesSeparateTrees) {
  auto a = obs(1, 100, {{10, 500}});
  auto b = obs(1, 100, {{10, 500}});
  b.lsp.asn = 65002;
  const auto trees = trees_of({a, b});
  EXPECT_EQ(trees.size(), 2u);
}

TEST(EgressTree, SummaryCounts) {
  const auto trees = trees_of(
      {obs(1, 100, {{10, 500}}), obs(2, 100, {{10, 501}}),   // multi-FEC
       obs(1, 200, {{20, 600}}), obs(2, 200, {{20, 600}}),   // LDP tree
       obs(1, 300, {{30, 700}})});                           // single
  const TreeStats stats = summarize(trees);
  EXPECT_EQ(stats.trees, 3u);
  EXPECT_EQ(stats.multi_fec, 1u);
  EXPECT_EQ(stats.ldp_consistent, 1u);
  EXPECT_EQ(stats.single_branch, 1u);
  // The LDP tree has TWO branches (different ingresses => different LSPs).
  EXPECT_EQ(stats.branches_total, 2u + 2u + 1u);
}

TEST(EgressTree, TreeIndexingClassifiesAtLeastAsManyBranches) {
  // The Sec.-5 claim: every LSP falls in exactly one tree, and trees are
  // never more fragmented than IOTPs.
  std::vector<LspObservation> observations;
  for (std::uint32_t i = 1; i <= 6; ++i) {
    observations.push_back(
        obs(i, 100 + (i % 2) * 100, {{10 + i, 500 + i}}, 9 + i));
  }
  const auto trees = trees_of(observations);
  const auto iotps = group_iotps(table_of(observations));
  EXPECT_LE(trees.size(), iotps.size());
  std::uint64_t tree_branches = 0;
  for (const auto& t : trees) tree_branches += t.branches.size();
  std::uint64_t iotp_branches = 0;
  for (const auto& r : iotps) iotp_branches += r.variants.size();
  EXPECT_EQ(tree_branches, iotp_branches);  // same LSPs, coarser grouping
}

TEST(EgressTree, ClassNames) {
  EXPECT_STREQ(to_cstring(TreeClass::kSingleBranch), "Single-Branch");
  EXPECT_STREQ(to_cstring(TreeClass::kLdpConsistent), "LDP-Consistent");
  EXPECT_STREQ(to_cstring(TreeClass::kMultiFec), "Multi-FEC");
}

}  // namespace
}  // namespace mum::lpr
