// LDP (Label Distribution Protocol, RFC 5036) control-plane simulation.
//
// LDP semantics that matter for LPR and that we model faithfully:
//  * Downstream allocation: for a given FEC, the label shown at a router R is
//    the label *R itself* chose and advertised upstream.
//  * Router scope: R advertises the SAME label for a FEC to all neighbours.
//    Hence two LDP LSPs converging on the same router interface always carry
//    the same label there — the signature of the paper's Mono-FEC class.
//  * FECs for transit traffic are loopbacks of (border) egress routers; the
//    LSP-tree toward a FEC follows the IGP shortest paths, including every
//    ECMP branch.
//  * PHP: the egress advertises implicit-null, making the penultimate router
//    pop the stack, so traceroute shows no label at the egress LER.
//
// Every router binds one label per reachable FEC, drawing from its own pool
// in ascending FEC order. The bindings are therefore a closed form of the
// router's pool start and the FEC's rank among the candidate FECs of its IGP
// component: the plane keeps O(1) state per router, answers label_of in
// O(1), and advances each pool past its bindings with one LabelPool::burn.
#pragma once

#include <cstdint>
#include <vector>

#include "igp/spf.h"
#include "mpls/label_pool.h"
#include "net/lse.h"
#include "topo/topology.h"

namespace mum::mpls {

struct LdpConfig {
  bool php = true;  // penultimate hop popping (implicit-null advertisement)
  // When true, allocate FEC labels for every router loopback (Cisco default:
  // all IGP prefixes); when false only border loopbacks get labels (Juniper
  // default: loopbacks — transit FECs are border loopbacks anyway).
  bool fec_all_loopbacks = false;
};

// The full LDP state of one AS: the label each router advertised for the FEC
// anchored at each router's loopback.
class LdpPlane {
 public:
  static constexpr std::uint32_t kNoLabel = ~std::uint32_t{0};

  // Builds label bindings, drawing from the per-router pools (indexed by
  // RouterId; the vector must have one pool per router). Each pool ends
  // where allocating its router's bindings one by one would leave it.
  static LdpPlane build(const topo::AsTopology& topo, const igp::IgpState& igp,
                        const LdpConfig& config,
                        std::vector<LabelPool>& pools);

  const LdpConfig& config() const noexcept { return config_; }

  // Label router `r` advertised for FEC `fec` (an egress RouterId).
  // Returns kLabelImplicitNull at the egress itself when PHP is on,
  // kNoLabel when `r` has no binding for that FEC.
  std::uint32_t label_of(topo::RouterId r, topo::RouterId fec) const {
    const Router& at = routers_[r];
    const Router& f = routers_[fec];
    if (!f.candidate || at.component != f.component) return kNoLabel;
    std::uint64_t k = f.rank;
    if (config_.php) {
      if (r == fec) return net::kLabelImplicitNull;
      // r's own loopback took no label, so FECs above it shift down one.
      if (at.candidate && r < fec) --k;
    }
    std::uint64_t offset = at.start + k;
    const std::uint64_t width =
        std::uint64_t{at.range.last} - at.range.first + 1;
    if (offset >= width) offset %= width;  // the pool wrapped
    return at.range.first + static_cast<std::uint32_t>(offset);
  }

 private:
  struct Router {
    std::uint32_t component = 0;  // IGP component label
    // Candidate FECs of the component with a lower router id: a candidate's
    // position in every same-component router's allocation order.
    std::uint32_t rank = 0;
    std::uint32_t start = 0;  // pool offset of the router's first binding
    bool candidate = false;   // its loopback is a FEC
    LabelRange range;         // the router's pool range
  };

  LdpConfig config_;
  std::vector<Router> routers_;
};

}  // namespace mum::mpls
