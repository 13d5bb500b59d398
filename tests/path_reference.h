// Test-only ground truth for path construction.
//
// reference_path_spec() is the original per-trace routing path: one
// valley-free AS route per call, then the stub hops, hot-potato ingress and
// per-destination egress of every modelled AS, kept verbatim modulo reaching
// the Internet's state through its public accessors. The library's route
// plans (gen::RoutePlan, finished per destination by Internet::path_spec)
// must reproduce it field for field; same_path() is that equality.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gen/internet.h"
#include "probe/forwarder.h"
#include "util/rng.h"

namespace mum::test {

inline double ref_to01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

inline std::uint64_t ref_dst24_hash(net::Ipv4Addr dst) {
  return util::mix64(dst.value() >> 8);
}

inline std::optional<probe::PathSpec> reference_path_spec(
    const gen::Internet& internet, const probe::Monitor& monitor,
    const gen::Destination& dest, const gen::MonthContext& ctx) {
  const gen::AsGraph& graph_ = internet.graph();
  const gen::GenConfig& config_ = internet.config();
  const std::uint32_t src_asn = internet.monitor_asn(monitor.id);
  const std::vector<std::uint32_t> as_path = graph_.route(src_asn, dest.asn);
  if (as_path.empty()) return std::nullopt;

  probe::PathSpec path;
  path.dst = dest.addr;
  path.dst_responds =
      ref_to01(util::hash_combine(dest.addr.value(),
                                  config_.seed ^ 0xDE57ull)) >=
      config_.dest_silent_prob;
  const std::uint64_t dh = ref_dst24_hash(dest.addr);

  // Source-side stub hops: monitor gateway + stub exit router.
  const gen::AsNode& src_node = graph_.as_node(src_asn);
  path.pre_hops.push_back(src_node.block.nth(
      src_node.block.size() / 4 + 2 * monitor.id));
  path.pre_hops.push_back(src_node.block.nth(
      src_node.block.size() / 4 + 64 + 2 *
          (util::hash_combine(monitor.id, as_path.size() > 1 ? as_path[1]
                                                             : 0) % 8)));

  for (std::size_t i = 1; i < as_path.size(); ++i) {
    const std::uint32_t asn = as_path[i];
    const gen::AsNode& node = graph_.as_node(asn);
    const std::uint32_t prev_asn = as_path[i - 1];
    if (!node.modeled) {
      // Stub AS: destination side only (stubs never provide transit).
      const std::uint64_t quarter = node.block.size() / 4;
      path.post_hops.push_back(node.block.nth(
          quarter + 128 + 2 * (util::hash_combine(prev_asn, asn) % 16)));
      continue;
    }

    const gen::ModeledAs* as = internet.modeled(asn);
    probe::SegmentSpec seg;
    seg.plane = ctx.plane_of(asn);
    if (seg.plane == nullptr) return std::nullopt;
    // Hot-potato ingress: where a packet enters an AS is fixed by where it
    // comes FROM (the upstream handed it over at the interconnect nearest
    // the source), not by its destination — so one monitor funnels all its
    // traffic through one ingress and IOTPs aggregate many destinations.
    const std::uint64_t ingress_hash =
        util::hash_combine(monitor.id + 1, prev_asn);
    seg.ingress = as->border_for(prev_asn, ingress_hash);
    seg.entry_iface = as->entry_iface_for(prev_asn, ingress_hash);
    if (i + 1 < as_path.size()) {
      // Egress toward the next AS; rotate the hash so ingress and egress
      // peering-point choices decorrelate.
      seg.egress = as->border_for(as_path[i + 1], util::mix64(dh + 1));
    } else {
      // Destination lives inside this modelled AS: route to its
      // (hash-chosen) attachment router.
      seg.egress = static_cast<topo::RouterId>(
          util::mix64(dest.addr.value() >> 8) % as->topo.router_count());
    }
    path.segments.push_back(seg);
  }
  return path;
}

inline bool same_path(const probe::PathSpec& a, const probe::PathSpec& b) {
  if (a.pre_hops != b.pre_hops || a.post_hops != b.post_hops ||
      a.dst != b.dst || a.dst_responds != b.dst_responds ||
      a.segments.size() != b.segments.size()) {
    return false;
  }
  for (std::size_t s = 0; s < a.segments.size(); ++s) {
    const probe::SegmentSpec& x = a.segments[s];
    const probe::SegmentSpec& y = b.segments[s];
    if (x.plane != y.plane || x.ingress != y.ingress ||
        x.egress != y.egress || x.entry_iface != y.entry_iface) {
      return false;
    }
  }
  return true;
}

}  // namespace mum::test
