// Archipelago-style probing campaigns over the synthetic internet.
//
// A snapshot = one run of the monitor fleet (each monitor probes its share of
// the destination list, Paris-traceroute style). A month = the cycle snapshot
// plus `extra_snapshots` follow-up runs (consumed by the Persistence filter),
// with routing flaps applied between runs and TE label dynamics advanced for
// dynamic-label ASes. Daily generation (Fig. 16) exposes day-of-month so
// profile ramps and fleet-size variation can play out.
//
// CampaignRunner is the entry point: it holds the campaign configuration
// once and generates snapshots with the monitor fleet fanned out over an
// optional thread pool. Each monitor task is the whole front end for its
// block: it probes the monitor's share of the destination list into its
// shard's arena, annotates the block with the shard's own ip2as memo, and
// either hands it to a caller's sink right there (stream_month: the run
// loop extracts LSPs inside the fan-out) or leaves it for a column-wise
// merge into one SnapshotBatch (snapshot/month: materialized where the
// bytes themselves are consumed).
//
// Determinism contract: every monitor draws its observation noise from an
// RNG stream keyed by (seed, cycle, sub_index, monitor), and its routes from
// plans that depend on (monitor, destination AS) alone, so a block's bytes
// do not depend on which worker ran it or when. Materialized snapshots
// concatenate the blocks in monitor order; streamed consumers get each
// block tagged with its monitor index and must combine results in that
// order. Either way the output is bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dataset/ip2as.h"
#include "dataset/trace_batch.h"
#include "gen/evolve.h"
#include "gen/internet.h"
#include "util/thread_pool.h"

namespace mum::gen {

struct CampaignConfig {
  int extra_snapshots = 2;  // snapshots X+1..X+j generated per month
  probe::TraceOptions trace;
  // Fraction of the monitor fleet active (varies day-to-day in Fig. 16).
  double monitor_share = 1.0;
};

// Consumer of one monitor's annotated block of snapshot `sub_index` (0 =
// the cycle snapshot). Called on the pool worker that probed the block —
// concurrently for different monitors, never twice for one (sub_index,
// monitor) — and the block is valid only for the duration of the call.
using BlockSink = std::function<void(
    int sub_index, std::size_t monitor, const dataset::TraceBatch& block)>;

class CampaignRunner {
 public:
  // References (not copies) the internet and ip2as table; both must outlive
  // the runner. `pool` is optional shared parallelism — null means serial.
  CampaignRunner(const Internet& internet, const dataset::Ip2As& ip2as,
                 CampaignConfig config = {},
                 util::ThreadPool* pool = nullptr);
  ~CampaignRunner();  // out-of-line: MonitorShard is incomplete here
  CampaignRunner(CampaignRunner&&) noexcept;
  CampaignRunner& operator=(CampaignRunner&&) noexcept;

  const CampaignConfig& config() const noexcept { return config_; }
  const Internet& internet() const noexcept { return *internet_; }
  const dataset::Ip2As& ip2as() const noexcept { return *ip2as_; }
  util::ThreadPool* pool() const noexcept { return pool_; }

  // One snapshot at (cycle, sub_index). `ctx` must come from
  // internet.instantiate(); flaps for `sub_index` are applied inside.
  // Monitors probe into per-shard arena batches (cached on the runner and
  // reset between snapshots, so the steady state of a month allocates
  // nothing in the probe loop), each annotated inside the fan-out, then
  // merged column-wise in monitor order.
  //
  // Not safe to call concurrently on one runner: it mutates `ctx` and
  // reuses the runner's shard arenas, ip2as memos and route plans.
  dataset::SnapshotBatch snapshot(MonthContext& ctx, int cycle,
                                  int sub_index) const;
  // Same, with a per-call config override (daily fleet-size wobble).
  dataset::SnapshotBatch snapshot(MonthContext& ctx, int cycle, int sub_index,
                                  const CampaignConfig& config) const;

  // Full month: cycle snapshot + extra snapshots, advancing label dynamics
  // between runs.
  dataset::MonthData month(int cycle) const;
  // Same month, generated against `evolver`'s standing world instead of a
  // from-scratch instantiate. Byte-identical to `month(cycle)` (the
  // DeltaEvolver oracle contract), but cycle N+1 is a mutation of cycle N.
  dataset::MonthData month(DeltaEvolver& evolver, int cycle) const;
  // Same, with a per-call config override (the run loop's fleet dips).
  dataset::MonthData month(DeltaEvolver& evolver, int cycle,
                           const CampaignConfig& config) const;

  // The same month as month(evolver, cycle, config), streamed: no snapshot
  // is materialized; every monitor block of every snapshot goes to `sink`
  // inside the fan-out. Merging the blocks each snapshot received, in
  // monitor order, gives exactly that snapshot of the materialized month.
  // Monitors outside the configured share send no block.
  void stream_month(DeltaEvolver& evolver, int cycle,
                    const CampaignConfig& config,
                    const BlockSink& sink) const;

  // Daily data for one month (Fig. 16): `days` snapshots, profile evaluated
  // at each day, fleet size wobbling deterministically around the configured
  // share. One DeltaEvolver carries the month: each new day is
  // evolve_to(cycle, day), the same step a new cycle takes, so the days
  // equal per-day instantiates of (cycle, day).
  std::vector<dataset::SnapshotBatch> daily_month(int cycle, int days) const;

 private:
  // The month's snapshots over a standing context: the cycle snapshot,
  // then each extra one after a step of label dynamics. With a sink, the
  // snapshots stream to it and the returned month holds none.
  dataset::MonthData probe_month(MonthContext& ctx, int cycle,
                                 const CampaignConfig& config,
                                 const BlockSink* sink) const;
  // Probes, annotates and (with a sink) consumes one snapshot's monitor
  // blocks inside the fan-out. Returns the number of monitors that ran;
  // their blocks stay in the shards until the next call.
  std::size_t probe_blocks(MonthContext& ctx, int cycle, int sub_index,
                           const CampaignConfig& config,
                           const BlockSink* sink) const;

  // Per-monitor front-end state, cached across snapshots (and, on a runner
  // that outlives a cycle, across cycles): the arena the shard's block
  // carves from, sized from the block's previous volume, a reusable
  // forwarder walk buffer and path, the shard's addr -> asn memo, and the
  // monitor's route plans. Arena high-water stops climbing after the first
  // snapshot (the soak tests gate this via the probe.arena.* gauges).
  struct MonitorShard;

  const Internet* internet_;
  const dataset::Ip2As* ip2as_;
  CampaignConfig config_;
  util::ThreadPool* pool_;
  mutable std::vector<std::unique_ptr<MonitorShard>> shards_;
};

}  // namespace mum::gen
