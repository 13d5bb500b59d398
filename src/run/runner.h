// Campaign-level execution engine: the library's top entry point for paper
// studies. A Runner builds the synthetic internet once from its config, then
// runs monthly cycles in order through generation and the LPR pipeline: one
// standing world evolves cycle to cycle, and the inner stages (monitor
// fan-out, per-AS evolution, classification) use a thread pool
// the Runner owns.
//
// The month streams (extract_streamed_month below): each monitor task of
// the campaign fan-out probes, annotates and extracts its own block,
// writing its LSPs as rows of a flat lpr::LspTable, and each snapshot's
// blocks are stitched in monitor order. No merged snapshot exists unless
// its bytes are consumed: data chaos and --checkpoint-data shards take the
// materialized month instead, as do the from-scratch run_cycle and the
// re-ingest of persisted shards; all three extract it with
// lpr::extract_month. Either way LPR gets one form, the extracted month
// (element 0 the cycle snapshot), through one classify step. Streamed
// extraction runs inside generation, so a cycle's manifest counts it in
// the `generate` stage; a materialized month is extracted inside
// `classify`, which otherwise covers the filters (over table rows and the
// hash column), grouping (an lpr::Lsp per distinct IOTP variant only),
// classification and dropping the month's tables.
//
// The fig*/table* binaries, the CLI and the examples all share this one
// API.
//
// Determinism contract: all randomness derives from RNG streams keyed by
// (seed, cycle, monitor)-style lineages, an evolved cycle is byte-identical
// to a from-scratch rebuild of it, and per-worker results merge in index
// order — so `threads = N` produces bit-identical reports to `threads = 1`
// for any N. Pick `threads` purely for wall-clock: one per hardware thread
// (the default, threads = 0) is right unless the machine is shared.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "core/report.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "run/manifest.h"
#include "util/thread_pool.h"

namespace mum::run {

// The month of `cycle` streamed through extraction against `evolver`'s
// standing world (gen::CampaignRunner::stream_month with lpr::extract_block
// as the sink, on the campaign's ip2as table): every monitor block is
// extracted inside the fan-out, then each snapshot's blocks are stitched in
// monitor order (lpr::stitch_blocks, one task per snapshot on the
// campaign's pool). Element 0 is the cycle snapshot — the form
// lpr::run_pipeline takes. Equals lpr::extract_month over
// campaign.month(evolver, cycle, config), row for row and counter for
// counter.
std::vector<lpr::ExtractedSnapshot> extract_streamed_month(
    const gen::CampaignRunner& campaign, gen::DeltaEvolver& evolver,
    int cycle, const gen::CampaignConfig& config);

struct RunnerConfig {
  gen::GenConfig gen;
  gen::CampaignConfig campaign;
  lpr::PipelineConfig pipeline;
  int first_cycle = 0;
  int last_cycle = gen::kCycles - 1;  // inclusive
  // Fleet-size anomalies per (0-based) cycle: the paper's dataset shows two
  // dips "caused by measurement issues in the Archipelago infrastructure"
  // at cycles 23 and 58 (1-based) — modelled as a reduced monitor share.
  std::map<int, double> fleet_share_by_cycle = {{22, 0.55}, {57, 0.6}};
  // Worker threads for the inner stages of each cycle: 0 = one per
  // hardware thread, 1 = fully serial. Output is identical either way.
  int threads = 0;

  // --- fault injection & containment (run_all_contained only) -----------
  // Chaos faults injected into each cycle's data (off by default). When
  // flip_byte > 0, snapshots additionally round-trip through serialization +
  // tolerant decode, and the decoder's diagnostics land in the cycle report.
  chaos::ChaosConfig chaos;
  // Containment policy: fail-fast (default) stops scheduling new cycles
  // after the first failure; keep-going contains every failure until the
  // budget runs out. Failed cycles keep a placeholder report slot either way.
  bool keep_going = false;
  // Max failed cycles tolerated under keep-going before the run aborts
  // (remaining cycles are marked skipped); negative = unlimited.
  int failure_budget = -1;
  // When non-empty, each finished cycle writes <dir>/cycle_<N>.mumc and
  // resume = true splices existing checkpoints in instead of recomputing —
  // the resumed final report is byte-identical to an uninterrupted run.
  std::string checkpoint_dir;
  bool resume = false;
  // Also persist each cycle's month data as per-snapshot shards in
  // checkpoint_dir. On resume, a cycle whose report checkpoint is missing
  // or stale re-ingests its shards instead of regenerating; the manifest marks it kFromData. For
  // clean (chaos-free) runs the resumed report stays byte-identical.
  bool checkpoint_data = false;

  // --- supervision (run_all_contained only) -----------------------------
  // Extra attempts for a cycle whose worker threw. The attempt number keys
  // the io-fault streams (an injected EIO storm on attempt 0 does not recur
  // on attempt 1), while data chaos keys off (seed, cycle) alone — so an
  // injected cycle failure still burns every attempt. Every attempt probes
  // a freshly settled month (the DeltaEvolver re-steps a cycle that a
  // failed attempt already probed), so the report bytes never depend on
  // how many attempts a cycle needed. 0 = no retries.
  int retries = 0;
  // Deterministic backoff between attempts: attempt N sleeps N * this.
  std::uint32_t retry_backoff_ms = 1;
  // Cooperative per-cycle deadline, 0 = none. IoEnv ops and stage
  // boundaries check it; an expired cycle is recorded kTimedOut (never
  // retried — the next attempt would hit the same wall) and counts against
  // the failure budget.
  std::uint32_t cycle_deadline_ms = 0;
  // Consecutive ENOSPC checkpoint-write failures before the run degrades:
  // persistence is dropped, computing continues, the manifest records it.
  int enospc_degrade_threshold = 3;
};

// What run_all_contained produces: the science and the operational record.
struct RunOutcome {
  lpr::LongitudinalReport report;
  RunManifest manifest;
};

class Runner {
 public:
  explicit Runner(const RunnerConfig& config);
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  const RunnerConfig& config() const noexcept { return config_; }
  const gen::Internet& internet() const noexcept { return internet_; }
  const dataset::Ip2As& ip2as() const noexcept { return ip2as_; }
  // Effective thread count (config.threads resolved against hardware).
  unsigned threads() const noexcept;
  // The runner's pool; null when threads() is 1.
  util::ThreadPool* pool() const noexcept { return pool_.get(); }
  // The campaign configuration of one cycle (the configured fleet dips
  // applied). Benches that sweep months hold one gen::CampaignRunner and
  // one gen::DeltaEvolver over the sweep, as run_all_contained does, and
  // pass this per cycle.
  gen::CampaignConfig campaign_for(int cycle) const;

  // Random access: instantiate one cycle's world from scratch, generate its
  // month and run the LPR pipeline on it. Monitor fan-out and
  // classification use the pool when threads > 1. This from-scratch rebuild
  // is the oracle the evolved campaign loop is held byte-identical to.
  lpr::CycleReport run_cycle(int cycle) const;
  // Month data only (for benches that sweep pipeline configs over fixed
  // data, like the Fig. 6 persistence sweep).
  dataset::MonthData month_data(int cycle) const;

  // The campaign loop: walks the configured cycle range in order against
  // one gen::DeltaEvolver, with chaos injection, per-cycle error
  // containment under the configured failure policy, checkpoints and
  // resume. A failed cycle keeps a deterministic placeholder slot (cycle
  // id + date, zero counts), and with the default fail-fast policy the
  // remaining cycles are skipped; the manifest says which. Progress goes
  // through obs::log (one info line per 12 cycles, per-cycle at debug).
  // The manifest additionally records per-cycle wall-clock and stage
  // timings, total wall-clock and peak RSS — observed state only; nothing
  // in the report depends on it.
  RunOutcome run_all_contained() const;

 private:
  // Data chaos on a materialized month: structural faults mutate its
  // snapshots in place; wire faults round-trip them through a pack and
  // tolerant decode, re-annotating survivors, with the decoder's
  // diagnostics accumulated into `decode`.
  void corrupt_month(int cycle, chaos::Corruptor& corruptor,
                     dataset::DecodeDiagnostics& decode,
                     dataset::MonthData& month) const;
  // The LPR pipeline over the extracted month `month()` returns, behind a
  // deadline check. `month` runs inside the classify stage span, so a
  // materialized month's lpr::extract_month is attributed to classify; a
  // streamed month arrives already extracted.
  lpr::CycleReport classify(
      int cycle,
      const std::function<std::vector<lpr::ExtractedSnapshot>()>& month) const;
  // Re-ingest a cycle's persisted data shards (strict decode) and run the
  // pipeline on them. nullopt when shards are missing, incomplete (fewer
  // than the configured snapshots per cycle — a crash mid-persist must not
  // silently thin the month) or undecodable — the caller recomputes from
  // generation. An undecodable shard is recorded
  // in `status` so the supervision layer can quarantine it.
  std::optional<lpr::CycleReport> run_cycle_from_data(
      int cycle, CycleStatus* status = nullptr) const;
  // Move a corrupt checkpoint/shard into <checkpoint_dir>/quarantine/
  // (kept as evidence, never deleted) and record the reason in `status`.
  void quarantine_file(const std::string& path, const std::string& reason,
                       CycleStatus& status) const;

  RunnerConfig config_;
  // Declared before internet_: the pool also parallelizes the per-AS IGP
  // computation while the internet is built.
  std::unique_ptr<util::ThreadPool> pool_;  // null when threads resolve to 1
  gen::Internet internet_;
  dataset::Ip2As ip2as_;
};

}  // namespace mum::run
