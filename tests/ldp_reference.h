// Test-only ground truth for the LDP plane.
//
// reference_ldp() is the original all-pairs builder, kept verbatim modulo
// the return type: an n^2 table filled router by router, each router's pool
// allocating one label per reachable candidate FEC in ascending FEC order.
// The library's closed form (mpls::LdpPlane) must reproduce every cell and
// leave every pool in the same state; expect_matches_reference() checks
// both.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "igp/spf.h"
#include "mpls/label_pool.h"
#include "mpls/ldp.h"
#include "net/lse.h"
#include "topo/topology.h"

namespace mum::test {

struct ReferenceLdp {
  std::size_t n = 0;
  std::vector<std::uint32_t> labels;  // labels[r * n + fec]

  std::uint32_t label_of(topo::RouterId r, topo::RouterId fec) const {
    return labels.at(r * n + fec);
  }
};

inline ReferenceLdp reference_ldp(const topo::AsTopology& topo,
                                  const igp::IgpState& igp,
                                  const mpls::LdpConfig& config,
                                  std::vector<mpls::LabelPool>& pools) {
  constexpr std::uint32_t kNoLabel = mpls::LdpPlane::kNoLabel;
  ReferenceLdp plane;
  plane.n = topo.router_count();
  plane.labels.assign(plane.n * plane.n, kNoLabel);

  std::vector<std::uint8_t> candidate(plane.n, 0);
  for (topo::RouterId fec = 0; fec < plane.n; ++fec) {
    candidate[fec] = config.fec_all_loopbacks || topo.router(fec).is_border;
  }

  // Router-major order: contiguous walks over each router's label row.
  // Each per-router pool still allocates in ascending-FEC order, so the
  // label assignment is identical to the FEC-major loop. Reachability comes
  // from the IGP's component labels, so binding forces no SPF row.
  for (topo::RouterId r = 0; r < plane.n; ++r) {
    for (topo::RouterId fec = 0; fec < plane.n; ++fec) {
      if (!candidate[fec]) continue;
      if (r == fec) {
        plane.labels[r * plane.n + fec] =
            config.php ? net::kLabelImplicitNull
                       : pools[r].allocate();
        continue;
      }
      if (!igp.reachable(r, fec)) continue;
      // Downstream unsolicited, liberal retention: every reachable router
      // binds one label per FEC and advertises it to all neighbours.
      plane.labels[r * plane.n + fec] = pools[r].allocate();
    }
  }
  return plane;
}

// Builds the closed form and the reference from copies of `pools`, then
// compares every (router, FEC) label and every post-build pool state.
// Returns the number of cells compared; reports the first mismatch only.
inline std::uint64_t expect_matches_reference(
    const topo::AsTopology& topo, const igp::IgpState& igp,
    const mpls::LdpConfig& config, const std::vector<mpls::LabelPool>& pools) {
  std::vector<mpls::LabelPool> closed_pools = pools;
  std::vector<mpls::LabelPool> reference_pools = pools;
  const mpls::LdpPlane plane =
      mpls::LdpPlane::build(topo, igp, config, closed_pools);
  const ReferenceLdp reference =
      reference_ldp(topo, igp, config, reference_pools);

  const std::size_t n = topo.router_count();
  for (topo::RouterId r = 0; r < n; ++r) {
    const mpls::LabelPool::State got = closed_pools[r].state();
    const mpls::LabelPool::State want = reference_pools[r].state();
    if (got.next != want.next || got.count != want.count) {
      ADD_FAILURE() << "pool of router " << r << ": next " << got.next
                    << " count " << got.count << ", reference next "
                    << want.next << " count " << want.count
                    << " (php=" << config.php
                    << " fec_all_loopbacks=" << config.fec_all_loopbacks
                    << ")";
      return 0;
    }
    for (topo::RouterId fec = 0; fec < n; ++fec) {
      if (plane.label_of(r, fec) != reference.label_of(r, fec)) {
        ADD_FAILURE() << "label_of(" << r << ", " << fec
                      << ") = " << plane.label_of(r, fec) << ", reference "
                      << reference.label_of(r, fec)
                      << " (php=" << config.php
                      << " fec_all_loopbacks=" << config.fec_all_loopbacks
                      << ")";
        return 0;
      }
    }
  }
  return std::uint64_t{n} * n;
}

}  // namespace mum::test
