// Test-only ground truth for the IGP layer.
//
// reference_spf() is the original source-rooted implementation (Dijkstra
// with predecessor lists, then one reverse BFS per destination to collect
// first-hop links), kept verbatim modulo the return type. The library's
// lazy egress-rooted rows must reproduce it byte for byte: same distances,
// same next hops in the same ascending link order. same_rows() is the
// whole-state equality oracle, answered by querying every pair.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "igp/spf.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace mum::test {

struct ReferenceRib {
  std::vector<std::uint32_t> dist;
  std::vector<std::vector<igp::NextHop>> nexthops;
};

struct RefQueueItem {
  std::uint32_t dist;
  topo::RouterId router;
  friend bool operator>(const RefQueueItem& a, const RefQueueItem& b) {
    return a.dist > b.dist;
  }
};

inline ReferenceRib reference_spf(const topo::AsTopology& topo,
                                  topo::RouterId src,
                                  const std::vector<bool>* link_down) {
  using igp::kUnreachable;
  using igp::NextHop;
  using topo::RouterId;
  const std::size_t n = topo.router_count();
  std::vector<std::uint32_t> dist(n, kUnreachable);
  std::vector<std::vector<topo::LinkId>> predecessors(n);
  std::priority_queue<RefQueueItem, std::vector<RefQueueItem>,
                      std::greater<>> pq;
  dist[src] = 0;
  pq.push({0, src});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (const topo::LinkId lid : topo.links_of(u)) {
      if (link_down != nullptr && (*link_down)[lid]) continue;
      const topo::Link& l = topo.link(lid);
      const RouterId v = l.other(u);
      const std::uint32_t nd = d + l.igp_cost;
      if (nd < dist[v]) {
        dist[v] = nd;
        predecessors[v].clear();
        predecessors[v].push_back(lid);
        pq.push({nd, v});
      } else if (nd == dist[v]) {
        predecessors[v].push_back(lid);
      }
    }
  }
  std::vector<std::vector<NextHop>> nexthops(n);
  std::vector<std::uint8_t> mark(n, 0);
  std::vector<RouterId> stack;
  for (RouterId dst = 0; dst < n; ++dst) {
    if (dst == src || dist[dst] == kUnreachable) continue;
    std::fill(mark.begin(), mark.end(), 0);
    stack.clear();
    stack.push_back(dst);
    mark[dst] = 1;
    std::vector<topo::LinkId> first_links;
    while (!stack.empty()) {
      const RouterId v = stack.back();
      stack.pop_back();
      for (const topo::LinkId lid : predecessors[v]) {
        const RouterId u = topo.link(lid).other(v);
        if (u == src) {
          first_links.push_back(lid);
        } else if (!mark[u]) {
          mark[u] = 1;
          stack.push_back(u);
        }
      }
    }
    std::sort(first_links.begin(), first_links.end());
    first_links.erase(std::unique(first_links.begin(), first_links.end()),
                      first_links.end());
    for (const topo::LinkId lid : first_links) {
      nexthops[dst].push_back(NextHop{lid, topo.link(lid).other(src)});
    }
  }
  return ReferenceRib{std::move(dist), std::move(nexthops)};
}

// Asserts exact equality — distances, reachability AND next-hop sequences
// in order. The lazy state is queried in a shuffled (source, destination)
// order, so its rows are computed in an order unrelated to router ids.
inline void expect_matches_reference(const topo::AsTopology& topo,
                                     const igp::IgpState& igp,
                                     const std::vector<bool>* link_down,
                                     std::uint64_t shuffle_seed = 1) {
  using topo::RouterId;
  const std::size_t n = topo.router_count();
  std::vector<ReferenceRib> ref;
  for (RouterId s = 0; s < n; ++s) {
    ref.push_back(reference_spf(topo, s, link_down));
  }
  std::vector<std::pair<RouterId, RouterId>> pairs;
  for (RouterId s = 0; s < n; ++s) {
    for (RouterId d = 0; d < n; ++d) pairs.emplace_back(s, d);
  }
  util::Rng rng(shuffle_seed);
  for (std::size_t i = pairs.size(); i > 1; --i) {
    std::swap(pairs[i - 1], pairs[rng.below(i)]);
  }
  for (const auto& [s, d] : pairs) {
    ASSERT_EQ(igp.distance(s, d), ref[s].dist[d])
        << "dist mismatch src=" << s << " dst=" << d;
    ASSERT_EQ(igp.reachable(s, d), ref[s].dist[d] != igp::kUnreachable)
        << "reachability mismatch src=" << s << " dst=" << d;
    const auto nhs = igp.nexthops(s, d);
    ASSERT_EQ(nhs.size(), ref[s].nexthops[d].size())
        << "ECMP width mismatch src=" << s << " dst=" << d;
    for (std::size_t i = 0; i < nhs.size(); ++i) {
      ASSERT_EQ(nhs[i], ref[s].nexthops[d][i])
          << "next hop mismatch src=" << s << " dst=" << d << " i=" << i;
    }
  }
}

// `topo` with the overlay's metrics baked into its links, so the verbatim
// reference (which prices links by igp_cost) sees the overlay's costs.
inline topo::AsTopology with_costs(const topo::AsTopology& topo,
                                   const igp::LinkOverlay& overlay) {
  topo::AsTopology out(topo.asn());
  for (const topo::Router& r : topo.routers()) {
    out.add_router(r.loopback, r.vendor, r.is_border, r.name);
  }
  for (const topo::Link& l : topo.links()) {
    out.add_link(l.a, l.b, l.a_iface, l.b_iface, overlay.cost_of(l),
                 l.latency_ms);
  }
  return out;
}

// Whole-state equality: every (router, destination) pair answers the same
// distance, reachability and next hops.
inline bool same_rows(const igp::IgpState& a, const igp::IgpState& b) {
  if (a.router_count() != b.router_count()) return false;
  for (topo::RouterId s = 0; s < a.router_count(); ++s) {
    for (topo::RouterId d = 0; d < a.router_count(); ++d) {
      const auto x = a.nexthops(s, d);
      const auto y = b.nexthops(s, d);
      if (a.distance(s, d) != b.distance(s, d) ||
          a.reachable(s, d) != b.reachable(s, d) ||
          !std::equal(x.begin(), x.end(), y.begin(), y.end())) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace mum::test
