// The closed-form LDP plane against the all-pairs builder it replaced
// (ldp_reference.h): every label_of and every post-build pool state, under
// PHP x fec_all_loopbacks, on hand-built disconnected topologies, on pools
// that start near the top of their range (so the wrap fires, more than
// once on tiny ranges), on random graphs, and on every modelled AS of the
// default, --small and 20k-router churn worlds with several pool seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gen/internet.h"
#include "igp/spf.h"
#include "ldp_reference.h"
#include "mpls/label_pool.h"
#include "mpls/ldp.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace mum::mpls {
namespace {

using test::expect_matches_reference;
using topo::AsTopology;
using topo::RouterId;
using topo::Vendor;

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

constexpr LdpConfig kConfigs[] = {
    {.php = true, .fec_all_loopbacks = false},
    {.php = true, .fec_all_loopbacks = true},
    {.php = false, .fec_all_loopbacks = false},
    {.php = false, .fec_all_loopbacks = true},
};

std::uint64_t expect_all_configs(const AsTopology& topo,
                                 const igp::IgpState& igp,
                                 const std::vector<LabelPool>& pools) {
  std::uint64_t cells = 0;
  for (const LdpConfig& config : kConfigs) {
    cells += expect_matches_reference(topo, igp, config, pools);
  }
  return cells;
}

std::size_t component_count(const igp::IgpState& igp) {
  std::size_t count = 0;
  for (RouterId r = 0; r < igp.router_count(); ++r) {
    count += igp.component(r) == r ? 1 : 0;
  }
  return count;
}

std::vector<LabelPool> seeded_pools(const AsTopology& topo,
                                    std::uint64_t seed) {
  std::vector<LabelPool> pools;
  for (const topo::Router& r : topo.routers()) {
    pools.emplace_back(r.vendor, util::hash_combine(r.id, seed));
  }
  return pools;
}

TEST(LdpReference, DisconnectedTopology) {
  // Islands: a line of three (borders at both ends), a border pair, a lone
  // border and a lone core router.
  AsTopology topo(1);
  const RouterId a = topo.add_router(ip(1), Vendor::kCisco, true);
  const RouterId b = topo.add_router(ip(2), Vendor::kJuniper, false);
  const RouterId c = topo.add_router(ip(3), Vendor::kCisco, true);
  const RouterId d = topo.add_router(ip(4), Vendor::kJuniper, true);
  const RouterId e = topo.add_router(ip(5), Vendor::kCisco, true);
  topo.add_router(ip(6), Vendor::kCisco, true);
  topo.add_router(ip(7), Vendor::kJuniper, false);
  topo.add_link(a, b, ip(101), ip(102), 1);
  const topo::LinkId bc = topo.add_link(b, c, ip(103), ip(104), 1);
  topo.add_link(d, e, ip(105), ip(106), 1);

  const igp::IgpState igp = igp::IgpState::compute(topo);
  ASSERT_EQ(component_count(igp), 4u);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    expect_all_configs(topo, igp, seeded_pools(topo, seed));
  }
  std::vector<LabelPool> pools = seeded_pools(topo, 1);
  const LdpPlane plane = LdpPlane::build(topo, igp, {}, pools);
  EXPECT_NE(plane.label_of(a, c), LdpPlane::kNoLabel);
  EXPECT_EQ(plane.label_of(a, d), LdpPlane::kNoLabel);  // another island
  EXPECT_EQ(plane.label_of(d, c), LdpPlane::kNoLabel);

  // A failed link splits the line: c becomes an island of its own.
  std::vector<bool> down(topo.link_count(), false);
  down[bc] = true;
  const igp::IgpState split = igp::IgpState::compute(topo, &down);
  ASSERT_EQ(component_count(split), 5u);
  expect_all_configs(topo, split, seeded_pools(topo, 4));
}

TEST(LdpReference, PoolStartingNearTheTopWraps) {
  // A ring of 12 with every fourth router a border.
  AsTopology topo(1);
  constexpr RouterId kRing = 12;
  for (RouterId r = 0; r < kRing; ++r) {
    topo.add_router(ip(r + 1), Vendor::kJuniper, r % 4 == 0);
  }
  for (RouterId r = 0; r < kRing; ++r) {
    topo.add_link(r, (r + 1) % kRing, ip(1000 + 2 * r), ip(1001 + 2 * r), 1);
  }
  const igp::IgpState igp = igp::IgpState::compute(topo);

  // Odd routers draw from a 5-label range, narrower than their 11-12
  // bindings under fec_all_loopbacks, so those pools wrap twice; even
  // routers use the Juniper range. Each pool starts 0-3 labels below the
  // top, except one left past it (as allocate() leaves a pool that just
  // handed out `last`) and one below its range.
  const LabelRange tiny{100, 104};
  std::vector<LabelPool> pools;
  for (RouterId r = 0; r < kRing; ++r) {
    LabelPool pool(r % 2 == 1 ? tiny : default_range(Vendor::kJuniper));
    std::uint32_t next = pool.range().last - r % 4;
    if (r == 4) next = pool.range().last + 1;
    if (r == 7) next = pool.range().first - 1;
    pool.restore({next, r});
    pools.push_back(pool);
  }
  expect_all_configs(topo, igp, pools);

  // The wrap itself: router 1 starts at 103 and skips its own loopback
  // under PHP, so FECs 0, 2, 3 get 103, 104, 100; router 0 starts at the
  // Juniper top, so FECs 1, 2 get 800000, 300000.
  std::vector<LabelPool> drawn = pools;
  const LdpPlane plane = LdpPlane::build(
      topo, igp, {.php = true, .fec_all_loopbacks = true}, drawn);
  EXPECT_EQ(plane.label_of(1, 0), 103u);
  EXPECT_EQ(plane.label_of(1, 2), 104u);
  EXPECT_EQ(plane.label_of(1, 3), 100u);
  EXPECT_EQ(plane.label_of(1, 11), 103u);  // 11th binding, wrapped twice
  EXPECT_EQ(plane.label_of(0, 1), 800000u);
  EXPECT_EQ(plane.label_of(0, 2), 300000u);
}

TEST(LdpReference, RandomGraphs) {
  std::uint64_t cells = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    AsTopology topo(1);
    const auto n = static_cast<RouterId>(rng.uniform(1, 60));
    for (RouterId r = 0; r < n; ++r) {
      topo.add_router(ip(r + 1),
                      rng.chance(0.5) ? Vendor::kCisco : Vendor::kJuniper,
                      rng.chance(0.3));
    }
    // Sparse enough that many graphs fall apart into several components.
    const std::uint64_t links = rng.below(n + n / 2 + 1);
    for (std::uint64_t l = 0; l < links; ++l) {
      const auto u = static_cast<RouterId>(rng.below(n));
      const auto v = static_cast<RouterId>(rng.below(n));
      if (u == v) continue;
      const auto at = static_cast<std::uint32_t>(2 * l);
      topo.add_link(u, v, ip(100000 + at), ip(100001 + at),
                    static_cast<std::uint32_t>(rng.uniform(1, 10)));
    }
    std::vector<bool> down(topo.link_count(), false);
    for (std::size_t l = 0; l < down.size(); ++l) down[l] = rng.chance(0.1);
    const igp::IgpState igp = igp::IgpState::compute(topo, &down);

    // Pools anywhere in their range, a fifth of them near the top.
    std::vector<LabelPool> pools = seeded_pools(topo, seed);
    for (LabelPool& pool : pools) {
      if (rng.chance(0.2)) {
        pool.restore({pool.range().last - static_cast<std::uint32_t>(
                                              rng.below(4)),
                      0});
      }
    }
    cells += expect_all_configs(topo, igp, pools);
    if (HasFailure()) return;
  }
  EXPECT_GT(cells, 0u);
}

// The pools build_as_planes draws for `as` under world seed `seed`.
std::vector<LabelPool> world_pools(const gen::ModeledAs& as,
                                   std::uint32_t asn, std::uint64_t seed) {
  std::vector<LabelPool> pools;
  for (const topo::Router& r : as.topo.routers()) {
    pools.emplace_back(
        r.vendor,
        util::hash_combine((static_cast<std::uint64_t>(asn) << 32) | r.id,
                           seed ^ 0x9001ull));
  }
  return pools;
}

// Every modelled AS of `config`'s world under three pool seeds.
std::uint64_t expect_world_matches(const gen::GenConfig& config) {
  const gen::Internet internet(config);
  std::uint64_t cells = 0;
  for (const std::uint32_t asn : internet.modeled_asns()) {
    const gen::ModeledAs& as = *internet.modeled(asn);
    for (const std::uint64_t seed :
         {std::uint64_t{config.seed}, std::uint64_t{7}, std::uint64_t{0xFEED}}) {
      cells += expect_all_configs(as.topo, as.igp, world_pools(as, asn, seed));
      if (::testing::Test::HasFailure()) return cells;
    }
  }
  return cells;
}

gen::GenConfig small_world() {  // the CLI's --small world
  gen::GenConfig config;
  config.background_transit = 8;
  config.stub_ases = 12;
  config.monitors = 6;
  config.dests_per_monitor = 150;
  return config;
}

// `--small --scale routers=20000 --churn link=0.05`.
gen::GenConfig churn_world() {
  gen::GenConfig config = small_world();
  config.scale_routers = 20000;
  config.churn.link_down_prob = 0.05;
  return config;
}

TEST(LdpReference, DefaultWorld) {
  EXPECT_GT(expect_world_matches(gen::GenConfig{}), 0u);
}

TEST(LdpReference, SmallWorld) {
  EXPECT_GT(expect_world_matches(small_world()), 0u);
}

TEST(LdpReference, Churn20kWorld) {
  EXPECT_GT(expect_world_matches(churn_world()), 0u);
}

// The churn world's cycle overlays take links down, which splits some ASes
// into several components: the bindings must follow the split IGP too.
TEST(LdpReference, Churn20kWorldUnderCycleOverlays) {
  const gen::GenConfig config = churn_world();
  const gen::Internet internet(config);
  std::size_t split_ases = 0;
  for (const int cycle : {1, 2}) {
    for (const std::uint32_t asn : internet.modeled_asns()) {
      const gen::ModeledAs& as = *internet.modeled(asn);
      const igp::LinkOverlay overlay = internet.overlay_at(as, asn, cycle);
      if (overlay.trivial()) continue;
      const igp::IgpState igp =
          igp::IgpState::compute(as.topo, nullptr, &overlay);
      if (component_count(igp) > 1) ++split_ases;
      expect_all_configs(as.topo, igp, world_pools(as, asn, config.seed));
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(split_ases, 0u);
}

}  // namespace
}  // namespace mum::mpls
