// Delta-based cycle evolution: cycle N+1 as a mutation of cycle N.
//
// A from-scratch `Internet::instantiate()` rebuilds every AS's label pools,
// LDP bindings and RSVP-TE mesh each cycle, even though a real network — and
// the generator's profile model — changes only incrementally month over month
// (the paper on AS3356: "nothing has changed [infrastructurally] between
// Cycle 28 and Cycle 29"). The DeltaEvolver keeps ONE standing MonthContext
// and advances it: per-cycle churn (link/metric/router deltas, TE
// re-signalling epochs) swaps in a fresh lazy IGP state for the ASes whose
// overlay changed (igp/spf.h: it computes only the SPF rows the TE
// re-signalling and the month's routes ask for) and rebuilds their planes,
// as does a profile change; untouched ASes are merely rolled back to their
// pristine start-of-month state.
//
// Determinism contract (the oracle property, enforced by tests/test_evolve):
// every per-cycle delta is a pure function of (seed, asn, cycle), so a
// delta-evolved cycle is byte-identical to `instantiate(cycle)` at any
// thread count. The full rebuild stays available as the oracle
// (`Internet::instantiate`, and `run::Runner::run_cycle` above it); every
// campaign runs through the evolver.
#pragma once

#include <cstddef>
#include <optional>

#include "gen/internet.h"
#include "util/thread_pool.h"

namespace mum::gen {

// Per-cycle delta accounting (surfaced in run manifests and benches).
struct CycleDeltaStats {
  int cycle = -1;
  bool full_build = false;  // from-scratch instantiate (first cycle/fallback)
  std::size_t ases_total = 0;
  std::size_t ases_rebuilt = 0;   // per-AS planes rebuilt
  std::size_t ases_restored = 0;  // pristine rollback only
  std::size_t links_down = 0;          // overlay down links, all ASes
  std::size_t links_cost_changed = 0;  // overlay metric overrides, all ASes
  std::size_t spf_sources_total = 0;       // routers of overlay-changed ASes
  std::size_t spf_sources_recomputed = 0;  // SPF rows computed by the step
  std::size_t lsps_signalled = 0;  // TE LSPs signalled by rebuilt ASes
};

// Owns the standing MonthContext of a campaign and evolves it cycle to
// cycle. Not thread-safe; one evolver per campaign runner.
class DeltaEvolver {
 public:
  explicit DeltaEvolver(const Internet& internet,
                        util::ThreadPool* pool = nullptr)
      : internet_(&internet), pool_(pool) {}

  // Returns the context at (cycle, day_of_month). Advancing from the
  // current cycle applies deltas; the first call, a backward jump, or a
  // recovery after a failed step falls back to a full instantiate. Gaps are
  // fine: intermediate cycles' deltas replay in order (each cycle's state
  // is a pure function of (seed, cycle), not of the visit sequence). Asking
  // again for the cycle it holds returns the context as is while nothing
  // has probed it since; after a month ran on it (a retried cycle), the
  // cycle is re-stepped, so the caller always gets the fresh month.
  MonthContext& evolve_to(int cycle, int day_of_month = 1);

  const MonthContext* context() const noexcept {
    return ctx_ ? &*ctx_ : nullptr;
  }
  const Internet& internet() const noexcept { return *internet_; }
  // Accounting for the work the last evolve_to() performed.
  const CycleDeltaStats& last_stats() const noexcept { return stats_; }

 private:
  void full_build(int cycle, int day_of_month);
  void step_to(int cycle, int day_of_month);

  const Internet* internet_;
  util::ThreadPool* pool_;
  std::optional<MonthContext> ctx_;
  int day_ = 1;
  // Set when a delta step threw mid-mutation: the standing context may be
  // inconsistent, so the next evolve_to() rebuilds from scratch.
  bool poisoned_ = false;
  CycleDeltaStats stats_;
};

}  // namespace mum::gen
