#include "igp/spf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "obs/telemetry.h"
#include "spf_reference.h"
#include "topo/builder.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mum::igp {
namespace {

using topo::AsTopology;
using topo::RouterId;
using topo::Vendor;

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

// a --1-- b --1-- c, plus a --3-- c (worse).
AsTopology triangle() {
  AsTopology topo(1);
  const auto a = topo.add_router(ip(1), Vendor::kCisco, true);
  const auto b = topo.add_router(ip(2), Vendor::kCisco, false);
  const auto c = topo.add_router(ip(3), Vendor::kCisco, true);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(b, c, ip(103), ip(104), 1);
  topo.add_link(a, c, ip(105), ip(106), 3);
  return topo;
}

TEST(Spf, ShortestDistances) {
  const auto topo = triangle();
  const IgpState igp = IgpState::compute(topo);
  EXPECT_EQ(igp.distance(0, 0), 0u);
  EXPECT_EQ(igp.distance(0, 1), 1u);
  EXPECT_EQ(igp.distance(0, 2), 2u);  // via b, not the cost-3 direct link
  EXPECT_EQ(igp.distance(2, 0), 2u);
}

TEST(Spf, SingleNextHopOnUniquePath) {
  const auto topo = triangle();
  const IgpState igp = IgpState::compute(topo);
  const auto& nhs = igp.nexthops(0, 2);
  ASSERT_EQ(nhs.size(), 1u);
  EXPECT_EQ(nhs[0].neighbor, 1u);
}

TEST(Spf, EqualCostDirectAndIndirect) {
  // a-b-c all cost 1, plus direct a-c cost 2: both routes tie.
  AsTopology topo(1);
  const auto a = topo.add_router(ip(1), Vendor::kCisco, false);
  const auto b = topo.add_router(ip(2), Vendor::kCisco, false);
  const auto c = topo.add_router(ip(3), Vendor::kCisco, false);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(b, c, ip(103), ip(104), 1);
  topo.add_link(a, c, ip(105), ip(106), 2);
  const IgpState igp = IgpState::compute(topo);
  const auto& nhs = igp.nexthops(a, c);
  ASSERT_EQ(nhs.size(), 2u);
  std::set<RouterId> neighbors;
  for (const auto& nh : nhs) neighbors.insert(nh.neighbor);
  EXPECT_EQ(neighbors, (std::set<RouterId>{b, c}));
}

TEST(Spf, ParallelLinksAreDistinctNextHops) {
  AsTopology topo(1);
  const auto a = topo.add_router(ip(1), Vendor::kCisco, false);
  const auto b = topo.add_router(ip(2), Vendor::kCisco, false);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(a, b, ip(103), ip(104), 1);
  const IgpState igp = IgpState::compute(topo);
  const auto& nhs = igp.nexthops(a, b);
  ASSERT_EQ(nhs.size(), 2u);
  EXPECT_NE(nhs[0].link, nhs[1].link);
  EXPECT_EQ(nhs[0].neighbor, b);
  EXPECT_EQ(nhs[1].neighbor, b);
}

TEST(Spf, UnequalParallelLinksNotEcmp) {
  AsTopology topo(1);
  const auto a = topo.add_router(ip(1), Vendor::kCisco, false);
  const auto b = topo.add_router(ip(2), Vendor::kCisco, false);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(a, b, ip(103), ip(104), 2);  // worse bundle member
  const IgpState igp = IgpState::compute(topo);
  ASSERT_EQ(igp.nexthops(a, b).size(), 1u);
  EXPECT_EQ(igp.nexthops(a, b)[0].link, 0u);
}

TEST(Spf, DisconnectedIsUnreachable) {
  AsTopology topo(1);
  topo.add_router(ip(1), Vendor::kCisco, false);
  topo.add_router(ip(2), Vendor::kCisco, false);
  const IgpState igp = IgpState::compute(topo);
  EXPECT_FALSE(igp.reachable(0, 1));
  EXPECT_EQ(igp.distance(0, 1), kUnreachable);
  EXPECT_TRUE(igp.nexthops(0, 1).empty());
}

TEST(Spf, SelfDistanceZeroNoNextHops) {
  const auto topo = triangle();
  const IgpState igp = IgpState::compute(topo);
  EXPECT_EQ(igp.distance(1, 1), 0u);
  EXPECT_TRUE(igp.nexthops(1, 1).empty());
}

TEST(Spf, DiamondEcmp) {
  //    b
  //  /   \
  // a     d   (all costs 1: two equal paths a-b-d / a-c-d)
  //  \   /
  //    c
  AsTopology topo(1);
  const auto a = topo.add_router(ip(1), Vendor::kCisco, false);
  const auto b = topo.add_router(ip(2), Vendor::kCisco, false);
  const auto c = topo.add_router(ip(3), Vendor::kCisco, false);
  const auto d = topo.add_router(ip(4), Vendor::kCisco, false);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(a, c, ip(103), ip(104), 1);
  topo.add_link(b, d, ip(105), ip(106), 1);
  topo.add_link(c, d, ip(107), ip(108), 1);
  const IgpState igp = IgpState::compute(topo);
  EXPECT_EQ(igp.nexthops(a, d).size(), 2u);
  EXPECT_EQ(igp.path_count(a, d), 2u);
  // Intermediate routers see a single next hop each.
  EXPECT_EQ(igp.nexthops(b, d).size(), 1u);
}

TEST(Spf, PathCountMultiplies) {
  // Two diamonds in series: 2 * 2 = 4 shortest paths.
  AsTopology topo(1);
  std::vector<RouterId> r;
  for (std::uint32_t i = 0; i < 7; ++i) {
    r.push_back(topo.add_router(ip(i + 1), Vendor::kCisco, false));
  }
  std::uint32_t next_ip = 100;
  auto link = [&](RouterId x, RouterId y) {
    topo.add_link(x, y, ip(next_ip++), ip(next_ip++), 1);
  };
  link(r[0], r[1]);
  link(r[0], r[2]);
  link(r[1], r[3]);
  link(r[2], r[3]);
  link(r[3], r[4]);
  link(r[3], r[5]);
  link(r[4], r[6]);
  link(r[5], r[6]);
  const IgpState igp = IgpState::compute(topo);
  EXPECT_EQ(igp.path_count(r[0], r[6]), 4u);
}

// Property tests over random builder topologies.
class SpfProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpfProperty, InvariantsHold) {
  util::Rng rng(GetParam());
  topo::BuildParams params;
  params.asn = 1;
  params.block = net::Ipv4Prefix(net::Ipv4Addr(16, 0, 0, 0), 16);
  params.core_routers = 4 + static_cast<int>(rng.below(4));
  params.pop_routers = 6 + static_cast<int>(rng.below(10));
  params.parallel_link_prob = 0.3;
  const AsTopology topo = topo::build_as_topology(params, rng);
  const IgpState igp = IgpState::compute(topo);

  for (RouterId s = 0; s < topo.router_count(); ++s) {
    for (RouterId d = 0; d < topo.router_count(); ++d) {
      if (s == d) continue;
      // Connected builder output: everything reachable.
      ASSERT_TRUE(igp.reachable(s, d));
      const auto dist = igp.distance(s, d);
      // Symmetric distances (undirected links, symmetric costs).
      EXPECT_EQ(dist, igp.distance(d, s));
      for (const NextHop& nh : igp.nexthops(s, d)) {
        // Every next hop strictly decreases the remaining distance by the
        // traversed link's cost (the ECMP DAG property).
        const auto& link = topo.link(nh.link);
        EXPECT_EQ(link.other(s), nh.neighbor);
        EXPECT_EQ(igp.distance(nh.neighbor, d) + link.igp_cost, dist);
      }
      EXPECT_FALSE(igp.nexthops(s, d).empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpfProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Reference parity: the lazy egress-rooted rows must reproduce, byte for
// byte, what the original per-destination reverse-BFS implementation
// computed (tests/spf_reference.h keeps it verbatim as the ground truth).
// ---------------------------------------------------------------------------

using test::expect_matches_reference;
using test::with_costs;

AsTopology random_topology(std::uint64_t seed) {
  util::Rng rng(seed);
  topo::BuildParams params;
  params.asn = 1;
  params.block = net::Ipv4Prefix(net::Ipv4Addr(16, 0, 0, 0), 16);
  params.core_routers = 4 + static_cast<int>(rng.below(5));
  params.pop_routers = 8 + static_cast<int>(rng.below(16));
  // Every other seed: parallel bundles (distinct ECMP next hops to one
  // neighbour) and non-uniform costs (asymmetric-cost relaxations).
  params.parallel_link_prob = (seed % 2 == 0) ? 0.4 : 0.0;
  params.uniform_costs = (seed % 3 != 0);
  params.heavy_cost_share = 0.25;
  return topo::build_as_topology(params, rng);
}

std::vector<bool> random_down(const AsTopology& topo, util::Rng& rng,
                              std::uint64_t one_in) {
  std::vector<bool> down(topo.link_count(), false);
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    down[l] = rng.below(one_in) == 0;
  }
  return down;
}

// A cycle overlay: a few links down, a few metrics re-priced.
LinkOverlay random_overlay(const AsTopology& topo, util::Rng& rng) {
  LinkOverlay overlay;
  overlay.down.assign(topo.link_count(), false);
  overlay.cost.assign(topo.link_count(), 0);
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    const std::uint64_t draw = rng.below(20);
    if (draw == 0) overlay.down[l] = true;
    if (draw == 1 || draw == 2) {
      overlay.cost[l] = 1 + static_cast<std::uint32_t>(rng.below(12));
    }
  }
  return overlay;
}

std::uint64_t rows_computed() {
  return obs::registry().counter("igp.spf_rows_computed").value();
}

class SpfReferenceParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpfReferenceParity, FullTopology) {
  const AsTopology topo = random_topology(GetParam());
  expect_matches_reference(topo, IgpState::compute(topo), nullptr,
                           GetParam());
}

TEST_P(SpfReferenceParity, WithDownedLinks) {
  const AsTopology topo = random_topology(GetParam());
  util::Rng rng(GetParam() * 7919 + 1);
  // Down ~10% of links: may partition the topology, which the parity check
  // must handle (unreachable destinations on both sides).
  const std::vector<bool> down = random_down(topo, rng, 10);
  expect_matches_reference(topo, IgpState::compute(topo, &down), &down,
                           GetParam() + 1);
}

// The state after intra-month failures on top of a cycle overlay (down
// links plus re-priced metrics) equals the reference's full recompute on
// the overlay-priced topology under the union down mask, for several random
// failure sets per topology.
TEST_P(SpfReferenceParity, ReconvergeMatchesFullRecompute) {
  const AsTopology topo = random_topology(GetParam());
  util::Rng rng(GetParam() * 104729 + 3);
  for (int round = 0; round < 3; ++round) {
    const LinkOverlay overlay = random_overlay(topo, rng);
    const std::vector<bool> failed = random_down(topo, rng, 12);
    std::vector<bool> all_down = failed;
    for (std::size_t l = 0; l < all_down.size(); ++l) {
      if (overlay.down[l]) all_down[l] = true;
    }
    const IgpState igp = IgpState::compute(topo, &failed, &overlay);
    EXPECT_EQ(igp.link_down(), all_down);
    expect_matches_reference(with_costs(topo, overlay), igp, &all_down,
                             GetParam() * 10 + round);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpfReferenceParity,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

TEST(SpfReferenceParity, UnreachablePartition) {
  // Two disconnected triangles: cross-component destinations unreachable.
  AsTopology topo(1);
  std::vector<RouterId> r;
  for (std::uint32_t i = 0; i < 6; ++i) {
    r.push_back(topo.add_router(ip(i + 1), Vendor::kCisco, false));
  }
  std::uint32_t next_ip = 100;
  auto link = [&](RouterId x, RouterId y, std::uint32_t cost) {
    topo.add_link(x, y, ip(next_ip++), ip(next_ip++), cost);
  };
  link(r[0], r[1], 1);
  link(r[1], r[2], 1);
  link(r[0], r[2], 2);
  link(r[3], r[4], 1);
  link(r[4], r[5], 1);
  link(r[3], r[5], 2);
  const IgpState igp = IgpState::compute(topo);
  expect_matches_reference(topo, igp, nullptr);
  EXPECT_FALSE(igp.reachable(r[0], r[3]));
  EXPECT_TRUE(igp.nexthops(r[0], r[3]).empty());
}

// A router added after the rest of the AS (the forwarder's unreachable-
// egress case): reachability comes from component labels and forces no
// row; the island's own row is all-unreachable except itself.
TEST(Spf, ReachableAcrossIslands) {
  AsTopology topo = triangle();
  const RouterId island = topo.add_router(ip(9), Vendor::kCisco, true);
  const IgpState igp = IgpState::compute(topo);
  const std::uint64_t before = rows_computed();
  for (RouterId s = 0; s < topo.router_count(); ++s) {
    for (RouterId d = 0; d < topo.router_count(); ++d) {
      EXPECT_EQ(igp.reachable(s, d), (s == island) == (d == island))
          << s << " -> " << d;
    }
  }
  EXPECT_EQ(rows_computed(), before);
  EXPECT_TRUE(igp.nexthops(0, island).empty());
  EXPECT_EQ(igp.distance(0, island), kUnreachable);
  EXPECT_EQ(igp.distance(island, island), 0u);
  EXPECT_EQ(rows_computed(), before + 1);  // the island's row only
  expect_matches_reference(topo, igp, nullptr);
}

// ---------------------------------------------------------------------------
// Post-failure states: building one computes no row, and every row it
// computes on demand equals the reference.
// ---------------------------------------------------------------------------

TEST(SpfReconverge, UnusedLinkRecomputesNothing) {
  // triangle(): the a--c cost-3 link carries no shortest path, so downing
  // it changes no row. Building the post-failure state computes no row at
  // all; only queried destinations do.
  const AsTopology topo = triangle();
  const IgpState baseline = IgpState::compute(topo);
  std::vector<bool> down(topo.link_count(), false);
  down[2] = true;  // the cost-3 a--c link
  const std::uint64_t before = rows_computed();
  const IgpState failed = IgpState::compute(topo, &down);
  EXPECT_EQ(rows_computed(), before);
  for (RouterId s = 0; s < 3; ++s) {
    for (RouterId d = 0; d < 3; ++d) {
      EXPECT_EQ(failed.distance(s, d), baseline.distance(s, d));
      const auto a = failed.nexthops(s, d);
      const auto b = baseline.nexthops(s, d);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
  }
  EXPECT_EQ(rows_computed(), before + 6);  // 3 rows in each state
  expect_matches_reference(topo, failed, &down);
}

TEST(SpfReconverge, FailureIsolatedToItsComponent) {
  // Two disconnected triangles; failing the r0--r1 edge of the first.
  // Routing toward triangle B computes only triangle-B rows, and every row
  // matches the reference.
  AsTopology topo(1);
  std::vector<RouterId> r;
  for (std::uint32_t i = 0; i < 6; ++i) {
    r.push_back(topo.add_router(ip(i + 1), Vendor::kCisco, false));
  }
  std::uint32_t next_ip = 100;
  auto link = [&](RouterId x, RouterId y) {
    topo.add_link(x, y, ip(next_ip++), ip(next_ip++), 1);
  };
  link(r[0], r[1]);  // link 0: in every triangle-A shortest-path DAG
  link(r[1], r[2]);
  link(r[0], r[2]);
  link(r[3], r[4]);
  link(r[4], r[5]);
  link(r[3], r[5]);
  std::vector<bool> down(topo.link_count(), false);
  down[0] = true;
  const IgpState igp = IgpState::compute(topo, &down);
  const std::uint64_t before = rows_computed();
  for (const RouterId d : {r[3], r[4], r[5]}) {
    EXPECT_FALSE(igp.reachable(r[0], d));
    EXPECT_EQ(igp.nexthops(r[4], d).size(), d == r[4] ? 0u : 1u);
  }
  EXPECT_EQ(rows_computed(), before + 3);
  EXPECT_EQ(igp.distance(r[0], r[1]), 2u);  // around via r2
  expect_matches_reference(topo, igp, &down);
}

TEST(SpfReconverge, ParallelOutputMatchesSerial) {
  // Rows first touched from 4 pool workers, one destination each, equal
  // the rows a serial fill computes.
  const AsTopology topo = random_topology(14);
  std::vector<bool> down(topo.link_count(), false);
  down[1] = true;
  down[topo.link_count() - 2] = true;
  const IgpState serial = IgpState::compute(topo, &down);
  const IgpState parallel = IgpState::compute(topo, &down);
  util::ThreadPool pool(4);
  util::parallel_for(&pool, topo.router_count(), [&](std::size_t d) {
    parallel.distance(0, static_cast<RouterId>(d));
  });
  EXPECT_TRUE(test::same_rows(serial, parallel));
}

// ---------------------------------------------------------------------------
// path_count: memoized DP must handle exponentially many shortest paths.
// ---------------------------------------------------------------------------

TEST(SpfPathCount, DiamondChainExponential) {
  // 40 diamonds in series: 2^40 shortest paths end to end. The former
  // recursive enumeration would take ~2^40 steps; the memoized DP is O(V+E).
  constexpr int kDiamonds = 40;
  AsTopology topo(1);
  std::uint32_t next_ip = 1;
  auto router = [&] {
    return topo.add_router(ip(next_ip++), Vendor::kCisco, false);
  };
  std::uint32_t link_ip = 100000;
  auto link = [&](RouterId x, RouterId y) {
    topo.add_link(x, y, ip(link_ip++), ip(link_ip++), 1);
  };
  RouterId head = router();
  const RouterId first = head;
  for (int i = 0; i < kDiamonds; ++i) {
    const RouterId up = router();
    const RouterId dn = router();
    const RouterId tail = router();
    link(head, up);
    link(head, dn);
    link(up, tail);
    link(dn, tail);
    head = tail;
  }
  const IgpState igp = IgpState::compute(topo);
  EXPECT_EQ(igp.path_count(first, head, std::uint64_t{1} << 50),
            std::uint64_t{1} << kDiamonds);
  // Saturation: a small cap is hit exactly, not overshot.
  EXPECT_EQ(igp.path_count(first, head, 100), 100u);
  // Default cap still saturates cleanly.
  EXPECT_EQ(igp.path_count(first, head), std::uint64_t{1} << 20);
}

TEST(SpfPathCount, BasicsUnchanged) {
  const AsTopology topo = triangle();
  const IgpState igp = IgpState::compute(topo);
  EXPECT_EQ(igp.path_count(0, 0), 1u);
  EXPECT_EQ(igp.path_count(0, 2), 1u);  // unique path via b
  AsTopology split(1);
  split.add_router(ip(1), Vendor::kCisco, false);
  split.add_router(ip(2), Vendor::kCisco, false);
  EXPECT_EQ(IgpState::compute(split).path_count(0, 1), 0u);
}

}  // namespace
}  // namespace mum::igp
