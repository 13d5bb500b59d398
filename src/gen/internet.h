// Synthetic internet: AS graph + router-level topologies for modelled
// transit ASes + per-month MPLS control planes + monitor/destination fleet.
//
// The Internet object is built once per study (topologies and the AS graph
// are time-invariant, as the paper observes for AS3356: "nothing has changed
// [infrastructurally] between Cycle 28 and Cycle 29 ... only the usage ...
// has been modified"). Per month, `instantiate()` materializes label pools,
// LDP/RSVP planes and data-plane configs from each AS's profile snapshot.
// IGP state is egress-rooted and lazy (igp/spf.h): standing up an AS, a
// cycle overlay or a snapshot's link failures computes no SPF row; rows are
// computed for the destinations routes and LSPs actually ask for.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "dataset/ip2as.h"
#include "gen/as_graph.h"
#include "gen/profiles.h"
#include "igp/spf.h"
#include "mpls/ldp.h"
#include "mpls/rsvp.h"
#include "probe/forwarder.h"
#include "probe/traceroute.h"
#include "topo/topology.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mum::gen {

struct GenConfig {
  std::uint64_t seed = 20151028;  // IMC'15 opening day
  int background_tier1 = 3;
  int background_transit = 30;
  int stub_ases = 40;
  int monitors = 14;
  // /24 destinations probed by each monitor per snapshot.
  int dests_per_monitor = 880;
  // Each destination is probed by this many monitors (Ark teams overlap in
  // coverage across cycles; >1 exposes each transit AS from several ingress
  // directions, which is where IOTP diversity comes from).
  int dest_overlap = 4;
  // Addresses probed per destination /24. Additional addresses share the
  // FEC (forwarding treats the /24 as one prefix) but carry different Paris
  // flow identifiers — exactly what reveals ECMP branches inside one IOTP.
  int probes_per_dest = 2;
  // Per-snapshot probability that a router's ECMP salt flaps (routing noise
  // removed by the Persistence filter).
  double ecmp_flap_prob = 0.08;
  // Probability that an AS undergoes maintenance in a given month; inside a
  // maintenance month, each link fails with `link_fail_prob`, going down at
  // a random snapshot and staying down. The IGP converges around the
  // failure (per-snapshot SPF) and affected RSVP-TE LSPs are re-signalled —
  // this is the "routing changes during the measurement" noise the
  // Persistence filter exists to remove (paper Sec. 3.1).
  double as_maintenance_prob = 1.0;
  double link_fail_prob = 0.05;
  // Probability that a destination never answers (probe still traces).
  double dest_silent_prob = 0.08;
  // Probability a router answers probes (anonymous-router share follows).
  double router_response_prob = 0.96;
  // Probability that a modelled AS has one mis-originated /23 in the IP2AS
  // table (drives the small IntraAS filter hit, paper: ~0.9% of LSPs).
  double ip2as_noise = 0.25;

  // --- cycle-to-cycle churn ------------------------------------------------
  // Long-lived per-cycle topology deltas (distinct from the intra-month
  // maintenance failures above): every knob draws from pure functions of
  // (seed, asn, cycle), so a delta-evolved world and a from-scratch rebuild
  // of the same cycle are byte-identical (the DeltaEvolver oracle contract).
  struct Churn {
    double link_down_prob = 0.0;      // per (link, cycle): link out all month
    double metric_change_prob = 0.0;  // per (link, cycle): IGP cost override
    double router_down_prob = 0.0;    // per (router, cycle): all links down
    // Per (AS, cycle) probability of an LSP re-signalling epoch: every TE
    // LSP of the AS re-signals with fresh labels (Fig. 17 label motion).
    double te_resignal_prob = 0.0;

    bool any() const noexcept {
      return link_down_prob > 0.0 || metric_change_prob > 0.0 ||
             router_down_prob > 0.0 || te_resignal_prob > 0.0;
    }
  } churn;

  // --- scale knobs (`--scale routers=N,lsps=M`) ----------------------------
  // Targets for the synthetic world size. `scale_routers` grows the
  // background transit AS count with ~256-router shapes (the AS size stays
  // with the shape profiles; per-AS state is O(V + E) plus the IGP rows a
  // month reads); `scale_lsps` sets TE density so the standing world
  // carries at least that many TE LSPs.
  std::uint64_t scale_routers = 0;  // 0 = off
  std::uint64_t scale_lsps = 0;     // 0 = off
};

struct Destination {
  net::Ipv4Addr addr;
  std::uint32_t asn = 0;
};

// One modelled (router-level) AS.
struct ModeledAs {
  AsShape shape;
  topo::AsTopology topo;
  igp::IgpState igp;
  // Peering points with each neighbour AS: real networks interconnect at
  // several locations, so a neighbour maps to up to kPeeringPoints borders,
  // each with its own entry interface. Which one a given packet uses is a
  // stable function of the destination prefix (BGP next-hop selection).
  static constexpr int kPeeringPoints = 3;
  std::map<std::uint32_t, std::vector<topo::RouterId>> borders_toward;
  std::map<std::uint32_t, std::vector<net::Ipv4Addr>> entry_ifaces_from;

  // Border router / entry iface serving `neighbor` for a destination whose
  // /24 hashes to `dst_hash`.
  topo::RouterId border_for(std::uint32_t neighbor,
                            std::uint64_t dst_hash) const;
  net::Ipv4Addr entry_iface_for(std::uint32_t neighbor,
                                std::uint64_t dst_hash) const;

  // Dense position among the modelled ASes (ascending ASN): the index of
  // this AS's planes in every MonthContext (MonthContext::plane_at).
  std::size_t index = 0;

  ModeledAs(AsShape s, topo::AsTopology t, igp::IgpState i)
      : shape(std::move(s)), topo(std::move(t)), igp(std::move(i)) {}
};

// The time-invariant part of every path from one monitor to one destination
// AS. The AS graph, the monitor's stub hops and the hot-potato ingress of
// each modelled AS depend on (monitor, destination AS) alone, so they are
// derived once; Internet::path_spec finishes a plan per destination with
// the egress peering point (a hash of the destination /24), the
// destination's responsiveness and the month's planes.
struct RoutePlan {
  // One modelled AS on the path.
  struct Segment {
    std::size_t plane = 0;  // ModeledAs::index: MonthContext::plane_at key
    topo::RouterId ingress = topo::kInvalidRouter;
    net::Ipv4Addr entry_iface;
    // Peering borders toward the next AS on the path; null when the
    // destination lives in this AS (egress = its attachment router).
    const std::vector<topo::RouterId>* next_borders = nullptr;
    std::size_t router_count = 0;
  };

  std::vector<std::uint32_t> as_path;  // empty: AS-level routing fails
  std::vector<net::Ipv4Addr> pre_hops;
  std::vector<net::Ipv4Addr> post_hops;
  std::vector<Segment> segments;

  bool routable() const noexcept { return !as_path.empty(); }
};

// Per-month mutable control-plane state of one AS.
struct AsPlanes {
  std::vector<mpls::LabelPool> pools;
  std::optional<mpls::LdpPlane> ldp;
  std::unique_ptr<mpls::RsvpTePlane> rsvp;
  // IGP state after this snapshot's link failures (unset => no failures,
  // plane.igp points at the cycle-converged state below, or the ModeledAs
  // base state when this cycle's overlay is trivial). apply_flaps keeps it,
  // with its computed rows, while its down mask is unchanged.
  std::optional<igp::IgpState> igp_now;
  probe::AsDataPlane plane;  // pointers reference ModeledAs + this struct

  // --- cycle-evolution state (DeltaEvolver / MonthContext reuse) -----------
  ProfileSnapshot profile;    // profile these planes were built from
  igp::LinkOverlay overlay;   // this cycle's persistent link deltas
  // IGP converged under `overlay` (unset when the overlay is trivial; the
  // base ModeledAs::igp is then the cycle state). TE LSPs signal over this.
  std::optional<igp::IgpState> igp_cycle;
  std::uint32_t label_epoch = 0;  // TE re-signalling epochs up to this cycle
  // Label counters after the full pristine build: what restore_pristine
  // rewinds to, undoing intra-month re-signalling draws.
  std::vector<mpls::LabelPool::State> pools_pristine;

  // The IGP state this cycle's routes are computed against.
  const igp::IgpState& cycle_igp(const ModeledAs& as) const noexcept {
    return igp_cycle ? *igp_cycle : as.igp;
  }
};

class Internet;
class DeltaEvolver;

// The control planes of every modelled AS for one month, plus snapshot-level
// observation state (ECMP flaps, coverage ramp days).
class MonthContext {
 public:
  // Re-signals TE LSPs of dynamic-label ASes (between snapshots).
  void advance_dynamics();
  // Sets per-router ECMP salts for snapshot `sub_index` (0 = cycle run).
  void apply_flaps(int sub_index, double flap_prob);

  const probe::AsDataPlane* plane_of(std::uint32_t asn) const;
  // Same, by ModeledAs::index — the route plans' dense key.
  const probe::AsDataPlane* plane_at(std::size_t index) const noexcept {
    return index < by_index_.size() ? &by_index_[index]->plane : nullptr;
  }

  int cycle() const noexcept { return cycle_; }

  // --- standing-world reuse (DeltaEvolver) ----------------------------------
  // Rolls every AS back to its pristine start-of-month control-plane state:
  // undoes flap re-signalling, dynamics re-optimization and failure state,
  // rewinds label-pool counters, and resets per-cycle scratch arenas. After
  // this, the context is byte-equivalent to a freshly instantiated month
  // just before its initial apply_flaps(0). The evolver's step (a new
  // cycle, or a new day of the same cycle) starts here.
  void restore_pristine();

 private:
  friend class Internet;
  friend class DeltaEvolver;
  int cycle_ = 0;
  std::uint64_t month_seed_ = 0;
  // Set by apply_flaps / advance_dynamics: the month has been probed (or
  // stepped) since the DeltaEvolver last settled it.
  bool mutated_ = false;
  std::map<std::uint32_t, std::unique_ptr<AsPlanes>> planes_;
  // planes_ in ModeledAs::index order (ascending ASN).
  std::vector<AsPlanes*> by_index_;
  const Internet* internet_ = nullptr;
};

class Internet {
 public:
  // Builds every AS's topology and its base IGP state, which computes no
  // SPF row until a route asks for one. `pool` is accepted so callers can
  // hand one pool to every layer; construction itself runs serially.
  explicit Internet(const GenConfig& config,
                    util::ThreadPool* pool = nullptr);

  const GenConfig& config() const noexcept { return config_; }
  const AsGraph& graph() const noexcept { return graph_; }
  const std::vector<probe::Monitor>& monitors() const noexcept {
    return monitors_;
  }
  const std::vector<Destination>& destinations() const noexcept {
    return destinations_;
  }
  const ModeledAs* modeled(std::uint32_t asn) const;
  std::vector<std::uint32_t> modeled_asns() const;

  // Routeviews-equivalent table (with the configured mis-origination noise).
  dataset::Ip2As build_ip2as() const;

  // Materialize control planes for (cycle, day-of-month). `pool`, when
  // given, fans the per-AS builds out (output identical at any thread
  // count).
  MonthContext instantiate(int cycle, int day_of_month = 1,
                           util::ThreadPool* pool = nullptr) const;

  // The route plan from `monitor` to destination AS `dst_asn` (not
  // routable when AS-level routing fails). Callers that probe many
  // destinations keep plans per (monitor, destination AS) for the run.
  RoutePlan route_plan(const probe::Monitor& monitor,
                       std::uint32_t dst_asn) const;

  // Finishes `plan` into the path toward `dest` (an address of the plan's
  // destination AS) through `ctx`'s planes. Refills `path`, keeping vector
  // capacities, so the per-probe loop performs no heap allocation; false
  // when the plan is not routable.
  bool path_spec(const RoutePlan& plan, const Destination& dest,
                 const MonthContext& ctx, probe::PathSpec& path) const;
  // One-off form: plans the route and finishes it; nullopt when AS-level
  // routing fails.
  std::optional<probe::PathSpec> path_spec(const probe::Monitor& monitor,
                                           const Destination& dest,
                                           const MonthContext& ctx) const;

  // AS hosting monitor `id`.
  std::uint32_t monitor_asn(std::uint32_t monitor_id) const {
    return monitor_asn_.at(monitor_id);
  }

  // Persistent link/metric/router deltas of `asn` at `cycle`: a pure
  // function of (seed, asn, cycle), identical whether the cycle is reached
  // by delta evolution or from-scratch instantiation. Canonical form: the
  // trivial overlay is {} (empty vectors).
  igp::LinkOverlay overlay_at(const ModeledAs& as, std::uint32_t asn,
                              int cycle) const;
  // Number of TE re-signalling epochs of `asn` up to and including `cycle`
  // (monotone in cycle; pure function of seed/asn/cycle).
  std::uint32_t label_epoch_at(std::uint32_t asn, int cycle) const;

 private:
  friend class MonthContext;
  friend class DeltaEvolver;

  void build_graph(util::Rng& rng);
  void build_topologies(util::Rng& rng);
  void place_monitors_and_destinations(util::Rng& rng);

  // Full per-AS control-plane build for `profile`: pools (with the epoch
  // label burn), LDP, RSVP-TE signalled over the cycle IGP, scalar fields,
  // and the pristine snapshots. Expects planes.overlay / planes.igp_cycle /
  // planes.label_epoch already set for the target cycle.
  void build_as_planes(std::uint32_t asn, const ModeledAs& as,
                       const ProfileSnapshot& profile,
                       AsPlanes& planes) const;
  // Updates the cheap per-snapshot observation scalars from `profile`.
  static void apply_profile_scalars(const ProfileSnapshot& profile,
                                    AsPlanes& planes);

  GenConfig config_;
  AsGraph graph_;
  std::map<std::uint32_t, std::unique_ptr<ModeledAs>> modeled_;
  std::vector<probe::Monitor> monitors_;
  std::vector<std::uint32_t> monitor_asn_;  // by monitor id
  std::vector<Destination> destinations_;
};

}  // namespace mum::gen
