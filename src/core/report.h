// Report layer: the LPR pipeline (filter -> group -> classify) applied per
// cycle to one extracted month, with per-AS breakdowns and longitudinal
// aggregation — the data behind Figs. 6, 10-16 and Tables 1-2. A month
// reaches it in one form, a span of extracted snapshots (lpr::extract_month
// for a materialized month, run::extract_streamed_month for a streamed one).
//
// Every report type implements the Report interface: `to_table` renders the
// fixed-width text form for terminals, `to_json` the machine-readable form
// for external plotting.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/classify.h"
#include "core/extract.h"
#include "core/filters.h"
#include "dataset/decode.h"
#include "util/thread_pool.h"

namespace mum::lpr {

// Uniform rendering interface for all report types.
class Report {
 public:
  virtual ~Report() = default;
  virtual void to_table(std::ostream& os) const = 0;
  virtual std::string to_json() const = 0;
};

// Render one ClassCounts as the standard class table (text or CSV) — the
// shared body of every report's table form.
void write_class_table(std::ostream& os, const ClassCounts& counts,
                       bool csv = false);

// Classification of one cycle, with per-AS detail.
struct CycleReport : Report {
  std::uint32_t cycle_id = 0;
  std::string date;
  ExtractStats extract_stats;
  FilterStats filter_stats;
  ClassCounts global;
  std::map<std::uint32_t, ClassCounts> per_as;   // keyed by ASN
  std::map<std::uint32_t, bool> dynamic_as;      // Persistence reinjection tag
  std::vector<IotpRecord> iotps;                 // classified records
  // Ingest health: what the decoder salvaged vs skipped for this cycle's
  // snapshots (empty/clean when the data never went through tolerant decode).
  dataset::DecodeDiagnostics decode;

  // Convenience: counts for one AS (zeroes when absent).
  ClassCounts as_counts(std::uint32_t asn) const;

  // Summary line + global class table + per-AS table.
  void to_table(std::ostream& os) const override;
  std::string to_json() const override { return to_json(false); }
  std::string to_json(bool include_iotps) const;
};

struct PipelineConfig {
  FilterConfig filter;
  ClassifyConfig classify;
};

// Run the full LPR pipeline on one extracted month: `month[0]` is the cycle
// snapshot, the rest are the following snapshots Persistence consults
// (lpr::extract_month builds this form from a materialized month, the
// campaign run loop from its streamed blocks). Extracting once lets a
// caller sweep filter configurations over fixed data, as the Fig. 6 bench
// does. With a pool, classification is sharded; output is identical to the
// serial run. `month` must not be empty.
CycleReport run_pipeline(std::span<const ExtractedSnapshot> month,
                         const PipelineConfig& config = {},
                         util::ThreadPool* pool = nullptr);

// The back half of run_pipeline: the report of `cycle` from its filtered
// observations, grouped into IOTPs, classified and tallied per AS. A caller
// that rewrites the survivors first (router-level regrouping) calls
// apply_filters, then this.
CycleReport cycle_report(const ExtractedSnapshot& cycle,
                         const FilteredCycle& filtered,
                         const ClassifyConfig& config = {},
                         util::ThreadPool* pool = nullptr);

// Longitudinal container: one report per cycle.
struct LongitudinalReport : Report {
  std::vector<CycleReport> cycles;

  // PDF of a class for one AS across cycles (the upper panes of Figs 10-15).
  struct AsSeriesPoint {
    std::uint32_t cycle_id = 0;
    ClassCounts counts;
    bool dynamic_tag = false;
  };
  std::vector<AsSeriesPoint> as_series(std::uint32_t asn) const;

  // One row per cycle: date, IOTP count, global class shares.
  void to_table(std::ostream& os) const override;
  std::string to_json() const override;
};

}  // namespace mum::lpr
