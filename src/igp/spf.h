// Link-state IGP shortest-path computation with full ECMP support.
//
// For every (router, destination-router) pair the state answers the
// distance and *all* equal-cost next hops, each identified by the outgoing
// link (so two parallel links to the same neighbour are two distinct ECMP
// next hops, exactly the situation behind the paper's "Parallel Links"
// subclass). LDP LSP-trees and the forwarding plane both consume these
// next-hop sets.
//
// The state is egress-rooted and lazy, like the LSP-trees it feeds: every
// consumer walks toward one destination (an egress LER, a TE tail end), so
// the state keeps one row per destination `t`, computed on first use and
// never rebuilt. A row is one Dijkstra from `t` over a CSR adjacency
// snapshot (link costs are symmetric, so distances from `t` are distances
// to `t`), plus one sweep that keeps, for every router, its arcs that lie on
// a shortest path toward `t`. `compute` itself is O(V + E): it snapshots the
// adjacency and the down mask and labels connected components, which answer
// `reachable` without forcing any row.
//
// Rows install through one atomic pointer per destination, so concurrent
// readers (the probe fan-out) may fill them in any order. A row is a pure
// function of (topology, overlay, down mask, destination), so every read
// sees the same bytes at any thread count and in any query order.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "topo/topology.h"

namespace mum::igp {

struct NextHop {
  topo::LinkId link = topo::kInvalidLink;
  topo::RouterId neighbor = topo::kInvalidRouter;

  friend bool operator==(const NextHop&, const NextHop&) = default;
};

inline constexpr std::uint32_t kUnreachable = ~std::uint32_t{0};

// Persistent per-cycle topology overlay: the long-lived link/router deltas
// that distinguish one monthly cycle's world from the base topology (as
// opposed to the transient intra-month failures `apply_flaps` layers on
// top). Canonical form: each vector is either empty (no deltas of that
// kind) or sized to the AS link count. `down[l]` removes link l entirely;
// `cost[l] != 0` overrides its IGP metric. Value-comparable so cycle
// evolution can detect per-AS overlay changes cheaply.
struct LinkOverlay {
  std::vector<bool> down;
  std::vector<std::uint32_t> cost;  // 0 = keep the base metric

  bool is_down(topo::LinkId l) const noexcept {
    return !down.empty() && down[l];
  }
  std::uint32_t cost_of(const topo::Link& link) const noexcept {
    return !cost.empty() && cost[link.id] != 0 ? cost[link.id] : link.igp_cost;
  }
  bool trivial() const noexcept {
    for (const bool d : down) {
      if (d) return false;
    }
    for (const std::uint32_t c : cost) {
      if (c != 0) return false;
    }
    return true;
  }

  friend bool operator==(const LinkOverlay&, const LinkOverlay&) = default;
};

// Routing state of one AS under one link set.
class IgpState {
 public:
  // Not `= default`: GCC cannot default-construct the nested deleter before
  // the class is complete.
  IgpState() : slots_(nullptr, SlotsDeleter{}) {}

  // Snapshots the adjacency and labels connected components; computes no
  // SPF row. When `link_down` is given (indexed by LinkId), those links are
  // excluded — the IGP converged around failed links. When `overlay` is
  // given, its down links are excluded too and its cost overrides replace
  // base link metrics.
  static IgpState compute(const topo::AsTopology& topo,
                          const std::vector<bool>* link_down = nullptr,
                          const LinkOverlay* overlay = nullptr);

  // Next hops of `at` toward `dst`, in ascending outgoing-link-id order
  // (empty at `dst` itself and when `dst` is unreachable).
  std::span<const NextHop> nexthops(topo::RouterId at,
                                    topo::RouterId dst) const {
    const std::uint32_t* words = row(dst);
    const std::uint32_t* begin = words + n_;
    return {hops_of(words) + begin[at],
            static_cast<std::size_t>(begin[at + 1] - begin[at])};
  }
  std::uint32_t distance(topo::RouterId at, topo::RouterId dst) const {
    return row(dst)[at];
  }
  // From the component labels: forces no row.
  bool reachable(topo::RouterId at, topo::RouterId dst) const {
    return component_[at] == component_[dst];
  }
  // Label of `r`'s connected component: the lowest router id in it.
  std::uint32_t component(topo::RouterId r) const { return component_[r]; }

  std::size_t router_count() const noexcept { return n_; }
  // Links this state excludes (the union of `link_down` and the overlay's
  // down links); empty when none are.
  const std::vector<bool>& link_down() const noexcept { return down_; }

  // Number of loop-free shortest paths from src to dst (counts distinct
  // link sequences, saturating at `cap`). Memoized DP over dst's next-hop
  // DAG: O(V + E) regardless of how many paths the DAG encodes.
  std::uint64_t path_count(topo::RouterId src, topo::RouterId dst,
                           std::uint64_t cap = 1u << 20) const;

 private:
  // A destination's row is one allocation, so a lookup is two dependent
  // loads past its slot: the distance of every router toward it (n words),
  // n + 1 offsets into the next hops, then the next hops grouped by router.
  // The slot points at the first word.
  using Slot = std::atomic<const std::uint32_t*>;
  struct SlotsDeleter {
    std::size_t n = 0;
    void operator()(Slot* slots) const noexcept;
  };

  const std::uint32_t* row(topo::RouterId dst) const {
    const std::uint32_t* r = slots_[dst].load(std::memory_order_acquire);
    return r != nullptr ? r : install(dst);
  }
  // The next hops install() placed right after the row's 2n + 1 words.
  const NextHop* hops_of(const std::uint32_t* words) const {
    return std::launder(
        reinterpret_cast<const NextHop*>(words + 2 * n_ + 1));
  }
  // Computes dst's row and publishes it (first writer wins).
  const std::uint32_t* install(topo::RouterId dst) const;

  std::size_t n_ = 0;
  topo::CsrAdjacency csr_;
  std::vector<bool> down_;
  std::vector<std::uint32_t> component_;
  std::unique_ptr<Slot[], SlotsDeleter> slots_;
};

}  // namespace mum::igp
