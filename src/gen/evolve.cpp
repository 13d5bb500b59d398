#include "gen/evolve.h"

#include <utility>
#include <vector>

#include "gen/profiles.h"
#include "obs/telemetry.h"
#include "util/rng.h"

namespace mum::gen {
namespace {

// True when a profile transition changes the AS's label pools, LDP plane or
// RSVP-TE mesh, so the evolver rebuilds its planes. Every other field is an
// observation scalar updated in place (Internet::apply_profile_scalars).
bool planes_changed(const ProfileSnapshot& a, const ProfileSnapshot& b) {
  return a.mpls_enabled != b.mpls_enabled || a.ldp != b.ldp ||
         a.php != b.php || a.fec_all_loopbacks != b.fec_all_loopbacks ||
         a.te_pair_share != b.te_pair_share ||
         a.te_lsps_min != b.te_lsps_min || a.te_lsps_max != b.te_lsps_max ||
         a.te_diverse_route_prob != b.te_diverse_route_prob ||
         a.te_frr != b.te_frr || a.ldp_over_te_share != b.ldp_over_te_share;
}

}  // namespace

MonthContext& DeltaEvolver::evolve_to(int cycle, int day_of_month) {
  if (!ctx_ || poisoned_ || cycle < ctx_->cycle()) {
    full_build(cycle, day_of_month);
    return *ctx_;
  }
  // A same-cycle call returns the standing context only while nothing has
  // probed it since it was settled. Once a month ran on it (flaps for the
  // extra snapshots, label dynamics), a retried cycle must not see that
  // half-mutated month: re-stepping is a pristine rollback plus no-op
  // deltas, which lands on exactly the state of a fresh instantiate.
  if (cycle == ctx_->cycle() && day_of_month == day_ && !ctx_->mutated_) {
    return *ctx_;
  }
  try {
    step_to(cycle, day_of_month);
  } catch (...) {
    poisoned_ = true;
  }
  if (poisoned_) full_build(cycle, day_of_month);
  return *ctx_;
}

void DeltaEvolver::full_build(int cycle, int day_of_month) {
  ctx_.emplace(internet_->instantiate(cycle, day_of_month, pool_));
  ctx_->mutated_ = false;
  day_ = day_of_month;
  poisoned_ = false;
  stats_ = CycleDeltaStats{};
  stats_.cycle = cycle;
  stats_.full_build = true;
  stats_.ases_total = ctx_->planes_.size();
  stats_.ases_rebuilt = ctx_->planes_.size();
  obs::registry().counter("evolve.full_builds").add(1);
}

void DeltaEvolver::step_to(int cycle, int day_of_month) {
  MonthContext& ctx = *ctx_;
  const GenConfig& config = internet_->config();
  static obs::Counter& rows =
      obs::registry().counter("igp.spf_rows_computed");
  const std::uint64_t rows_before = rows.value();

  stats_ = CycleDeltaStats{};
  stats_.cycle = cycle;
  stats_.ases_total = ctx.planes_.size();

  // Roll every AS back to its pristine start-of-month state (undoes flap
  // re-signalling, dynamics, failure reroutes; rewinds label counters and
  // scratch arenas), then mutate forward to the target cycle.
  ctx.restore_pristine();
  ctx.cycle_ = cycle;
  ctx.month_seed_ =
      util::hash_combine(config.seed, 0xC1C7Eull + static_cast<std::uint64_t>(
                                                       cycle));

  // Per-AS deltas are independent; fan out and reduce stats serially.
  std::vector<std::pair<std::uint32_t, AsPlanes*>> ases;
  ases.reserve(ctx.planes_.size());
  for (auto& [asn, planes] : ctx.planes_) ases.emplace_back(asn, planes.get());
  std::vector<CycleDeltaStats> per_as(ases.size());

  util::parallel_for(pool_, ases.size(), [&](std::size_t i) {
    const auto [asn, planes] = ases[i];
    CycleDeltaStats& st = per_as[i];
    const ModeledAs& as = *internet_->modeled(asn);
    const ProfileSnapshot profile =
        profile_at(asn, as.shape, cycle, day_of_month);
    igp::LinkOverlay overlay = internet_->overlay_at(as, asn, cycle);
    const std::uint32_t epoch = internet_->label_epoch_at(asn, cycle);

    const bool overlay_changed = !(overlay == planes->overlay);
    if (overlay_changed) {
      if (overlay.trivial()) {
        planes->igp_cycle.reset();  // back on the time-invariant base IGP
      } else {
        // A fresh lazy state: only the rows the TE re-signalling and the
        // month's routes ask for are ever computed.
        planes->igp_cycle = igp::IgpState::compute(as.topo, nullptr, &overlay);
      }
      st.spf_sources_total += as.topo.router_count();
      planes->overlay = std::move(overlay);
    }
    for (const bool d : planes->overlay.down) st.links_down += d ? 1 : 0;
    for (const std::uint32_t c : planes->overlay.cost) {
      st.links_cost_changed += c != 0 ? 1 : 0;
    }

    const bool epoch_changed = epoch != planes->label_epoch;
    planes->label_epoch = epoch;

    if (overlay_changed || epoch_changed ||
        planes_changed(planes->profile, profile)) {
      internet_->build_as_planes(asn, as, profile, *planes);
      ++st.ases_rebuilt;
      if (planes->rsvp) st.lsps_signalled += planes->rsvp->lsp_count();
    } else {
      Internet::apply_profile_scalars(profile, *planes);
      planes->profile = profile;
      planes->plane.igp = &planes->cycle_igp(as);
      ++st.ases_restored;
    }
  });

  for (const CycleDeltaStats& st : per_as) {
    stats_.ases_rebuilt += st.ases_rebuilt;
    stats_.ases_restored += st.ases_restored;
    stats_.links_down += st.links_down;
    stats_.links_cost_changed += st.links_cost_changed;
    stats_.spf_sources_total += st.spf_sources_total;
    stats_.lsps_signalled += st.lsps_signalled;
  }

  ctx.apply_flaps(/*sub_index=*/0, config.ecmp_flap_prob);
  ctx.mutated_ = false;
  day_ = day_of_month;
  stats_.spf_sources_recomputed = rows.value() - rows_before;

  obs::registry().counter("evolve.delta_steps").add(1);
  obs::registry().counter("evolve.ases_restored").add(stats_.ases_restored);
  obs::registry().counter("evolve.ases_rebuilt").add(stats_.ases_rebuilt);
}

}  // namespace mum::gen
