// Forwarding-plane simulation: walks a probe packet across a multi-AS path,
// applying per-AS MPLS behaviour (LDP LSP-trees over IGP ECMP, RSVP-TE
// explicit LSPs, PHP, ttl-propagate) and recording what each traversed
// router *would reveal* to traceroute.
//
// The walk is deterministic given (path, flow hash): ECMP choices hash the
// flow id with a per-router salt, modelling per-flow load balancing the way
// Paris traceroute assumes it works.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "igp/spf.h"
#include "mpls/ldp.h"
#include "mpls/rsvp.h"
#include "net/ipv4.h"
#include "net/lse.h"
#include "topo/topology.h"

namespace mum::probe {

// Per-destination FEC policy of a TE-enabled AS: which of the LER pair's TE
// LSPs carries a given destination prefix. Destination-based FECs are the
// paper's baseline assumption (Sec. 5, first paragraph).
struct TePolicy {
  // (ingress, egress) -> LSP ids, in signalling order.
  std::map<std::pair<topo::RouterId, topo::RouterId>,
           std::vector<mpls::LspId>>
      pairs;
  // Fraction of destination prefixes steered into TE LSPs (the rest rides
  // LDP / plain IGP). Selection is deterministic per /24.
  double te_share = 1.0;
  std::uint64_t salt = 0;

  // LDP-over-RSVP: per ingress LER, TE "hub" tunnels into the core that LDP
  // traffic can ride (targeted LDP session to the tunnel tail). Traffic
  // inside such a tunnel carries a 2-entry stack: outer = the hub tunnel's
  // per-hop TE label, inner = the label the hub advertised for the egress
  // FEC. Selection is per <ingress, egress> pair (BGP-next-hop granularity)
  // so one IOTP never mixes tunnelled and untunnelled branches.
  std::map<topo::RouterId, std::vector<mpls::LspId>> hub_tunnels;
  double ldp_over_te_share = 0.0;
};

// Everything the forwarder needs to cross one AS.
struct AsDataPlane {
  std::uint32_t asn = 0;
  const topo::AsTopology* topo = nullptr;
  const igp::IgpState* igp = nullptr;
  const mpls::LdpPlane* ldp = nullptr;        // null => no LDP
  const mpls::RsvpTePlane* rsvp = nullptr;    // null => no RSVP-TE
  TePolicy te_policy;
  bool ttl_propagate = true;  // copy IP-TTL into the LSE-TTL at the ingress
  bool rfc4950 = true;        // quote label stacks in ICMP time-exceeded
  // Share of destination prefixes for which the ingress LER actually pushes
  // labels (MPLS deployment can be partial during ramp-ups, Fig. 16).
  double mpls_coverage = 1.0;
  std::uint64_t coverage_salt = 0;
  // Share of border routers enabled as ingress LERs (deployment breadth).
  double ler_share = 1.0;
  std::uint64_t ler_salt = 0;
  // Per-router ECMP hash salts. Perturbing a router's salt between snapshots
  // models an IGP route change that re-maps flows to branches — the routing
  // noise the Persistence filter is designed to remove. Empty => asn is used.
  std::vector<std::uint64_t> ecmp_salts;

  std::uint64_t salt_for(topo::RouterId r) const noexcept {
    return r < ecmp_salts.size() ? ecmp_salts[r] : asn;
  }
};

// One AS to traverse: enter at `ingress` (revealing `entry_iface`), leave at
// `egress` toward the next segment.
struct SegmentSpec {
  const AsDataPlane* plane = nullptr;
  topo::RouterId ingress = topo::kInvalidRouter;
  topo::RouterId egress = topo::kInvalidRouter;
  net::Ipv4Addr entry_iface;  // address revealed on entering the AS
};

// A full monitor->destination path: synthetic plain-IP edge hops around the
// modelled transit segments.
struct PathSpec {
  std::vector<net::Ipv4Addr> pre_hops;   // source-side plain IP hops
  std::vector<SegmentSpec> segments;     // modelled ASes, in order
  std::vector<net::Ipv4Addr> post_hops;  // destination-side plain IP hops
  net::Ipv4Addr dst;
  bool dst_responds = true;
};

// What one traversed router would reveal.
struct HopRecord {
  net::Ipv4Addr addr;          // interface the packet entered through
  net::LabelStack labels;      // stack carried by the packet at arrival
  double response_prob = 1.0;  // router's probability of answering probes
  bool rfc4950 = true;         // does this router quote label stacks?
  bool ttl_visible = true;     // false => hidden (no ttl-propagate tunnels)
  double latency_ms = 0.5;     // one-way latency of the hop
};

struct WalkResult {
  std::vector<HopRecord> hops;  // routers in traversal order (visible or not)
  bool reached = false;         // destination replied
};

// Walk the path with a fixed flow hash. Never throws; malformed segments
// (unreachable egress) truncate the walk with reached=false.
WalkResult walk_path(const PathSpec& path, std::uint64_t flow_hash);

// Scratch-reusing form: clears and refills `out`, keeping its hop capacity.
// The per-trace hot path (traceroute/mda emit loops) reuses one WalkResult
// per worker so steady state performs no heap allocation here.
void walk_path(const PathSpec& path, std::uint64_t flow_hash,
               WalkResult& out);

// ECMP next-hop choice used by the walk (exposed for tests): deterministic
// in (flow, router, salt), uniform across next hops.
std::size_t ecmp_pick(std::uint64_t flow_hash, topo::RouterId router,
                      std::uint64_t salt, std::size_t n_choices);

// Whether the plane steers `dst` into a TE LSP of (ingress, egress); returns
// the chosen LSP id, or nullopt for LDP / plain forwarding.
std::optional<mpls::LspId> select_te_lsp(const AsDataPlane& plane,
                                         topo::RouterId ingress,
                                         topo::RouterId egress,
                                         net::Ipv4Addr dst);

// Whether the ingress LER pushes labels for `dst` at all (partial rollout).
bool mpls_applies(const AsDataPlane& plane, net::Ipv4Addr dst);

// Whether `router` is an MPLS-enabled ingress LER (partial LER rollout;
// the enabled set grows monotonically with AsDataPlane::ler_share).
bool ler_enabled(const AsDataPlane& plane, topo::RouterId router);

// LDP-over-RSVP hub tunnel the <ingress, egress> pair rides, if any.
std::optional<mpls::LspId> select_hub_tunnel(const AsDataPlane& plane,
                                             topo::RouterId ingress,
                                             topo::RouterId egress);

}  // namespace mum::probe
