#include "gen/campaign.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "obs/telemetry.h"
#include "probe/forwarder.h"
#include "probe/traceroute.h"
#include "util/arena.h"

namespace mum::gen {

struct CampaignRunner::MonitorShard {
  util::Arena arena;
  std::optional<dataset::TraceBatch> block;  // carves from `arena`
  // The block's volume in the previous snapshot: the monitor probes the
  // same destinations every snapshot, so it sizes the next block.
  std::size_t traces = 0, hops = 0, lses = 0;
  probe::WalkResult walk;
  probe::PathSpec path;
  // The ip2as table is fixed for the runner's lifetime, so the memo stays
  // warm across snapshots; one per shard, so the fan-out shares nothing.
  dataset::AsnCache asn_cache;
  // This shard's monitor's route plans, by destination AS.
  std::unordered_map<std::uint32_t, RoutePlan> plans;
};

CampaignRunner::CampaignRunner(const Internet& internet,
                               const dataset::Ip2As& ip2as,
                               CampaignConfig config, util::ThreadPool* pool)
    : internet_(&internet),
      ip2as_(&ip2as),
      config_(std::move(config)),
      pool_(pool) {}

CampaignRunner::~CampaignRunner() = default;
CampaignRunner::CampaignRunner(CampaignRunner&&) noexcept = default;
CampaignRunner& CampaignRunner::operator=(CampaignRunner&&) noexcept =
    default;

dataset::SnapshotBatch CampaignRunner::snapshot(MonthContext& ctx, int cycle,
                                                int sub_index) const {
  return snapshot(ctx, cycle, sub_index, config_);
}

dataset::SnapshotBatch CampaignRunner::snapshot(
    MonthContext& ctx, int cycle, int sub_index,
    const CampaignConfig& config) const {
  const std::size_t n_monitors =
      probe_blocks(ctx, cycle, sub_index, config, nullptr);
  dataset::SnapshotBatch snap;
  snap.cycle_id = static_cast<std::uint32_t>(cycle);
  snap.sub_index = static_cast<std::uint32_t>(sub_index);
  snap.date = cycle_date(cycle);
  // Column-wise merge in monitor order into the snapshot's private arena —
  // one exact reserve, then bulk appends with offset rebasing.
  std::size_t traces = 0, hops = 0, lses = 0;
  for (std::size_t mi = 0; mi < n_monitors; ++mi) {
    const dataset::TraceBatch& block = *shards_[mi]->block;
    traces += block.trace_count();
    hops += block.hop_count();
    lses += block.lse_count();
  }
  snap.traces.reserve(traces, hops, lses);
  for (std::size_t mi = 0; mi < n_monitors; ++mi) {
    snap.traces.append(*shards_[mi]->block);
  }
  return snap;
}

std::size_t CampaignRunner::probe_blocks(MonthContext& ctx, int cycle,
                                         int sub_index,
                                         const CampaignConfig& config,
                                         const BlockSink* sink) const {
  const Internet& internet = *internet_;
  ctx.apply_flaps(sub_index, internet.config().ecmp_flap_prob);

  const auto& monitors = internet.monitors();
  const auto& dests = internet.destinations();
  const std::size_t n_monitors = std::min(
      monitors.size(),
      std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(monitors.size()) *
                                      config.monitor_share)));

  // Observation-noise seed lineage: (seed, cycle, sub_index). Each monitor
  // forks its own stream below, so monitors can run in any order — or in
  // parallel — without perturbing each other's draws.
  const util::Rng noise_base(util::hash_combine(
      internet.config().seed,
      util::hash_combine(0xABCDull + cycle, sub_index)));

  const int per_monitor = internet.config().dests_per_monitor;
  const int overlap = std::max(1, internet.config().dest_overlap);

  // Shard arenas are grown serially, then reset and lent to one TraceBatch
  // each: after the first snapshot every column re-carves the same chunks,
  // so the probe loop's steady state performs no heap allocation. Blocks
  // are reserved at their previous volume plus 1/8: columns grown by
  // doubling abandon up to three times their bytes in the arena. An arena
  // left holding more than twice what its last snapshot used (the cold
  // first snapshot grew by doubling) is replaced once, so the chunks the
  // shards keep for the run track the blocks they serve.
  while (shards_.size() < n_monitors) {
    shards_.push_back(std::make_unique<MonitorShard>());
  }
  for (std::size_t mi = 0; mi < n_monitors; ++mi) {
    MonitorShard& shard = *shards_[mi];
    shard.block.reset();
    if (shard.arena.capacity() > 2 * shard.arena.used() +
                                     util::Arena::kDefaultChunkBytes) {
      shard.arena = util::Arena();
    }
    shard.arena.reset();
    shard.block.emplace(shard.arena);
    shard.block->reserve(shard.traces + shard.traces / 8,
                         shard.hops + shard.hops / 8,
                         shard.lses + shard.lses / 8);
  }

  // Ark-style split of the destination list across the fleet, with overlap:
  // destination d is probed by the `overlap` monitors following d % N
  // (stable across snapshots, so the Persistence filter compares like with
  // like). Each monitor writes, annotates and hands off its own block.
  util::parallel_for(pool_, n_monitors, [&](std::size_t mi) {
    const probe::Monitor& monitor = monitors[mi];
    util::Rng rng = noise_base.fork(mi);
    MonitorShard& shard = *shards_[mi];
    dataset::TraceBatch& out = *shard.block;
    int probed = 0;
    for (int o = 0; o < overlap && probed < per_monitor; ++o) {
      const std::size_t lane =
          (mi + monitors.size() - static_cast<std::size_t>(o)) %
          monitors.size();
      const int per_dest = std::max(1, internet.config().probes_per_dest);
      for (std::size_t d = lane; d < dests.size() && probed < per_monitor;
           d += monitors.size(), ++probed) {
        auto plan = shard.plans.find(dests[d].asn);
        if (plan == shard.plans.end()) {
          plan = shard.plans
                     .emplace(dests[d].asn,
                              internet.route_plan(monitor, dests[d].asn))
                     .first;
        }
        for (int pp = 0; pp < per_dest; ++pp) {
          // Additional probes land in the same /24 (same FEC) but hash to
          // different Paris flows.
          Destination dest = dests[d];
          dest.addr = net::Ipv4Addr(dest.addr.value() +
                                    static_cast<std::uint32_t>(pp) * 128);
          if (!internet.path_spec(plan->second, dest, ctx, shard.path)) {
            continue;
          }
          probe::trace_route_into(monitor, shard.path, config.trace, rng,
                                  out, &shard.walk);
        }
      }
    }
    ip2as_->annotate(out, shard.asn_cache);
    if (sink != nullptr) (*sink)(sub_index, mi, out);
  });

  // Arena telemetry — observed state only (obs/telemetry.h contract); the
  // soak tests assert the high-water gauge stops climbing after warm-up,
  // and the retained gauge (what every shard holds right now, not a
  // maximum) stays flat once the shards are sized to their blocks.
  static obs::Gauge& arena_capacity =
      obs::registry().gauge("probe.arena.capacity_bytes");
  static obs::Gauge& arena_retained =
      obs::registry().gauge("probe.arena.retained_bytes");
  static obs::Gauge& arena_high_water =
      obs::registry().gauge("probe.arena.high_water_bytes");
  static obs::Counter& arena_resets =
      obs::registry().counter("probe.arena.resets");
  static obs::Counter& batch_traces =
      obs::registry().counter("probe.batch.traces");
  static obs::Counter& batch_hops =
      obs::registry().counter("probe.batch.hops");
  std::uint64_t capacity = 0, high_water = 0, traces = 0, hops = 0;
  for (std::size_t mi = 0; mi < n_monitors; ++mi) {
    MonitorShard& shard = *shards_[mi];
    const util::Arena::Stats stats = shard.arena.stats();
    capacity += stats.capacity_bytes;
    high_water += stats.high_water_bytes;
    shard.traces = shard.block->trace_count();
    shard.hops = shard.block->hop_count();
    shard.lses = shard.block->lse_count();
    traces += shard.traces;
    hops += shard.hops;
  }
  std::uint64_t retained = 0;
  for (const auto& shard : shards_) retained += shard->arena.capacity();
  arena_capacity.max_of(static_cast<std::int64_t>(capacity));
  arena_retained.set(static_cast<std::int64_t>(retained));
  arena_high_water.max_of(static_cast<std::int64_t>(high_water));
  arena_resets.add(n_monitors);
  batch_traces.add(traces);
  batch_hops.add(hops);
  return n_monitors;
}

dataset::MonthData CampaignRunner::month(int cycle) const {
  MonthContext ctx = internet_->instantiate(cycle, /*day_of_month=*/1, pool_);
  return probe_month(ctx, cycle, config_, nullptr);
}

dataset::MonthData CampaignRunner::month(DeltaEvolver& evolver,
                                         int cycle) const {
  return month(evolver, cycle, config_);
}

dataset::MonthData CampaignRunner::month(DeltaEvolver& evolver, int cycle,
                                         const CampaignConfig& config) const {
  return probe_month(evolver.evolve_to(cycle, /*day_of_month=*/1), cycle,
                     config, nullptr);
}

void CampaignRunner::stream_month(DeltaEvolver& evolver, int cycle,
                                  const CampaignConfig& config,
                                  const BlockSink& sink) const {
  probe_month(evolver.evolve_to(cycle, /*day_of_month=*/1), cycle, config,
              &sink);
}

dataset::MonthData CampaignRunner::probe_month(MonthContext& ctx, int cycle,
                                               const CampaignConfig& config,
                                               const BlockSink* sink) const {
  dataset::MonthData month;
  month.cycle_id = static_cast<std::uint32_t>(cycle);
  month.date = cycle_date(cycle);
  for (int s = 0; s <= config.extra_snapshots; ++s) {
    if (s > 0) ctx.advance_dynamics();
    if (sink != nullptr) {
      probe_blocks(ctx, cycle, s, config, sink);
    } else {
      month.snapshots.push_back(snapshot(ctx, cycle, s, config));
    }
  }
  return month;
}

std::vector<dataset::SnapshotBatch> CampaignRunner::daily_month(
    int cycle, int days) const {
  const Internet& internet = *internet_;
  std::vector<dataset::SnapshotBatch> out;
  out.reserve(static_cast<std::size_t>(days));
  // One standing world for the whole month: deployment ramps are
  // day-resolved, and a new day of the same cycle is one evolver step (a
  // pristine rollback plus the per-AS profile re-evaluation) — byte-
  // identical to a per-day re-instantiate.
  DeltaEvolver evolver(internet, pool_);
  for (int day = 1; day <= days; ++day) {
    MonthContext& ctx = evolver.evolve_to(cycle, day);
    if (day > 1) ctx.advance_dynamics();

    CampaignConfig day_config = config_;
    // Fleet-size wobble (the paper notes "the number of considered
    // Archipelago vantage points differs from one day to another").
    const double wobble =
        0.7 + 0.3 * (static_cast<double>(util::mix64(
                         util::hash_combine(cycle, day)) %
                     1000) /
                     999.0);
    day_config.monitor_share = config_.monitor_share * wobble;

    dataset::SnapshotBatch snap = snapshot(ctx, cycle, day - 1, day_config);
    snap.date = cycle_date(cycle) + (day < 10 ? "-0" : "-") +
                std::to_string(day);
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace mum::gen
