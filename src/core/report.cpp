#include "core/report.h"

#include <ostream>

#include "obs/telemetry.h"
#include "util/table.h"

namespace mum::lpr {

ClassCounts CycleReport::as_counts(std::uint32_t asn) const {
  const auto it = per_as.find(asn);
  return it == per_as.end() ? ClassCounts{} : it->second;
}

void write_class_table(std::ostream& os, const ClassCounts& counts,
                       bool csv) {
  util::TextTable table({"class", "IOTPs", "share"});
  const double total = static_cast<double>(counts.total());
  auto row = [&](const char* name, std::uint64_t n) {
    table.add_row({name,
                   util::TextTable::fmt_int(static_cast<std::int64_t>(n)),
                   total > 0 ? util::TextTable::fmt(n / total, 3) : "-"});
  };
  row("Mono-LSP", counts.mono_lsp);
  row("Multi-FEC", counts.multi_fec);
  row("Mono-FEC", counts.mono_fec);
  row("  parallel-links", counts.parallel_links);
  row("  routers-disjoint", counts.routers_disjoint);
  row("Unclassified", counts.unclassified);
  os << (csv ? table.render_csv() : table.render());
}

void CycleReport::to_table(std::ostream& os) const {
  os << "cycle " << cycle_id + 1 << " (" << date << "): "
     << filter_stats.observed << " LSPs observed, "
     << filter_stats.after_persistence << " kept after filtering, "
     << iotps.size() << " IOTPs\n\n";
  write_class_table(os, global);

  os << '\n';
  util::TextTable table({"AS", "IOTPs", "Mono-LSP", "Multi-FEC", "Mono-FEC",
                         "Unclass.", "dynamic"});
  for (const auto& [asn, counts] : per_as) {
    const double t = static_cast<double>(counts.total());
    auto pct = [&](std::uint64_t n) {
      return t > 0 ? util::TextTable::fmt(n / t, 2) : std::string("-");
    };
    const auto dyn = dynamic_as.find(asn);
    table.add_row({"AS" + std::to_string(asn),
                   util::TextTable::fmt_int(static_cast<std::int64_t>(
                       counts.total())),
                   pct(counts.mono_lsp), pct(counts.multi_fec),
                   pct(counts.mono_fec), pct(counts.unclassified),
                   dyn != dynamic_as.end() && dyn->second ? "yes" : ""});
  }
  os << table;
}

void LongitudinalReport::to_table(std::ostream& os) const {
  util::TextTable table({"cycle", "date", "IOTPs", "Mono-LSP", "Multi-FEC",
                         "Mono-FEC", "Unclass."});
  for (const CycleReport& cycle : cycles) {
    const double total = static_cast<double>(cycle.global.total());
    auto pct = [&](std::uint64_t n) {
      return total > 0 ? util::TextTable::fmt(n / total, 2)
                       : std::string("-");
    };
    table.add_row({std::to_string(cycle.cycle_id + 1), cycle.date,
                   util::TextTable::fmt_int(static_cast<std::int64_t>(
                       cycle.global.total())),
                   pct(cycle.global.mono_lsp), pct(cycle.global.multi_fec),
                   pct(cycle.global.mono_fec),
                   pct(cycle.global.unclassified)});
  }
  os << table;
}

CycleReport run_pipeline(std::span<const ExtractedSnapshot> month,
                         const PipelineConfig& config,
                         util::ThreadPool* pool) {
  const ExtractedSnapshot& cycle = month.front();
  static obs::Counter& pipeline_runs =
      obs::registry().counter("lpr.pipeline_runs");
  static obs::Counter& traces = obs::registry().counter("lpr.traces");
  static obs::Counter& lsps = obs::registry().counter("lpr.lsps_observed");
  pipeline_runs.inc();
  traces.add(cycle.stats.traces_total);
  lsps.add(cycle.stats.lsps_observed);

  CycleReport report;
  report.cycle_id = cycle.cycle_id;
  report.date = cycle.date;
  report.extract_stats = cycle.stats;

  FilteredCycle filtered =
      apply_filters(cycle, month.subspan(1), config.filter);
  report.filter_stats = filtered.stats;

  report.iotps = group_iotps(filtered.observations);
  report.global = classify_all(report.iotps, config.classify, pool);

  for (const IotpRecord& rec : report.iotps) {
    report.per_as[rec.key.asn].add(rec);
  }
  for (const std::uint32_t asn : filtered.dynamic_asns) {
    report.dynamic_as[asn] = true;
  }
  return report;
}

std::vector<LongitudinalReport::AsSeriesPoint>
LongitudinalReport::as_series(std::uint32_t asn) const {
  std::vector<AsSeriesPoint> out;
  out.reserve(cycles.size());
  for (const CycleReport& report : cycles) {
    AsSeriesPoint point;
    point.cycle_id = report.cycle_id;
    point.counts = report.as_counts(asn);
    const auto it = report.dynamic_as.find(asn);
    point.dynamic_tag = it != report.dynamic_as.end() && it->second;
    out.push_back(point);
  }
  return out;
}

}  // namespace mum::lpr
