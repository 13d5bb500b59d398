#include "mpls/ldp.h"

namespace mum::mpls {

LdpPlane LdpPlane::build(const topo::AsTopology& topo,
                         const igp::IgpState& igp, const LdpConfig& config,
                         std::vector<LabelPool>& pools) {
  LdpPlane plane;
  plane.config_ = config;
  const std::size_t n = topo.router_count();
  plane.routers_.resize(n);

  // Component labels are router ids, so candidates are counted per label in
  // ascending router id: each candidate's rank, then each component's total.
  std::vector<std::uint32_t> candidates(n, 0);
  for (topo::RouterId r = 0; r < n; ++r) {
    Router& router = plane.routers_[r];
    router.component = igp.component(r);
    router.candidate = config.fec_all_loopbacks || topo.router(r).is_border;
    router.rank = candidates[router.component];
    if (router.candidate) ++candidates[router.component];
  }

  // Downstream unsolicited, liberal retention: every router binds one label
  // per candidate FEC of its component (its own loopback only without PHP)
  // and advertises it to all neighbours.
  for (topo::RouterId r = 0; r < n; ++r) {
    Router& router = plane.routers_[r];
    router.start = pools[r].offset();
    router.range = pools[r].range();
    const std::uint64_t bindings = candidates[router.component] -
                                   (config.php && router.candidate ? 1 : 0);
    pools[r].burn(bindings);
  }
  return plane;
}

}  // namespace mum::mpls
