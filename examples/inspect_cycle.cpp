// inspect_cycle: run the full LPR pipeline on one cycle of the default
// synthetic internet and dump everything an operator would want to see —
// filter attrition, global and per-AS classification, metric distributions.
//
//   $ ./inspect_cycle [cycle(1-based)=60] [seed]
#include <cstdlib>
#include <iostream>

#include "core/metrics.h"
#include "core/report.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mum;

  int cycle = 60;
  if (argc > 1) cycle = std::atoi(argv[1]);
  cycle = std::max(1, std::min(cycle, gen::kCycles)) - 1;  // to 0-based

  gen::GenConfig config;
  if (argc > 2) config.seed = std::strtoull(argv[2], nullptr, 10);

  gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const dataset::MonthData month =
      gen::CampaignRunner(internet, ip2as).month(cycle);
  const lpr::CycleReport report =
      lpr::run_pipeline(lpr::extract_month(month, ip2as));

  std::cout << "=== Cycle " << cycle + 1 << " (" << report.date << ") ===\n";
  const auto& e = report.extract_stats;
  std::cout << "traces: " << e.traces_total << ", with explicit tunnel: "
            << e.traces_with_explicit_tunnel << " ("
            << util::TextTable::fmt_pct(
                   static_cast<double>(e.traces_with_explicit_tunnel) /
                   static_cast<double>(e.traces_total))
            << ")\n";
  std::cout << "unique IPs: MPLS " << e.mpls_ips << ", non-MPLS "
            << e.non_mpls_ips << "\n\n";

  const auto& f = report.filter_stats;
  util::TextTable filters({"stage", "LSPs", "share of observed"});
  auto frow = [&](const char* name, std::uint64_t n) {
    filters.add_row({name, util::TextTable::fmt_int(static_cast<std::int64_t>(n)),
                     util::TextTable::fmt(
                         f.observed ? static_cast<double>(n) /
                                          static_cast<double>(f.observed)
                                    : 0.0,
                         3)});
  };
  frow("observed", f.observed);
  frow("complete", f.complete);
  frow("IntraAS", f.after_intra_as);
  frow("TargetAS", f.after_target_as);
  frow("TransitDiversity", f.after_transit_diversity);
  frow("Persistence", f.after_persistence);
  std::cout << filters << '\n';

  const double total = static_cast<double>(report.global.total());
  util::TextTable classes({"class", "IOTPs", "share"});
  auto crow = [&](const char* name, std::uint64_t n) {
    classes.add_row({name, util::TextTable::fmt_int(static_cast<std::int64_t>(n)),
                     util::TextTable::fmt_pct(total ? n / total : 0)});
  };
  crow("Mono-LSP", report.global.mono_lsp);
  crow("Multi-FEC", report.global.multi_fec);
  crow("Mono-FEC", report.global.mono_fec);
  crow("  parallel links", report.global.parallel_links);
  crow("  routers disjoint", report.global.routers_disjoint);
  crow("Unclassified", report.global.unclassified);
  std::cout << classes << '\n';

  util::TextTable per_as({"AS", "IOTPs", "Mono-LSP", "Multi-FEC", "Mono-FEC",
                          "Unclass.", "dynamic"});
  for (const auto& [asn, counts] : report.per_as) {
    const double t = static_cast<double>(counts.total());
    auto pct = [&](std::uint64_t n) {
      return t ? util::TextTable::fmt(n / t, 2) : std::string("-");
    };
    const auto dyn = report.dynamic_as.find(asn);
    per_as.add_row({"AS" + std::to_string(asn),
                    util::TextTable::fmt_int(static_cast<std::int64_t>(
                        counts.total())),
                    pct(counts.mono_lsp), pct(counts.multi_fec),
                    pct(counts.mono_fec), pct(counts.unclassified),
                    dyn != report.dynamic_as.end() && dyn->second ? "yes"
                                                                  : ""});
  }
  std::cout << per_as << '\n';

  const auto lengths = lpr::length_distribution(report.iotps);
  const auto widths = lpr::width_distribution(report.iotps);
  std::cout << "length: <=3 share " << util::TextTable::fmt(lengths.cdf(3), 3)
            << ", max " << lengths.max_key() << '\n';
  std::cout << "width: =1 share " << util::TextTable::fmt(widths.pdf(1), 3)
            << ", max " << widths.max_key() << '\n';
  std::cout << "balanced (symmetry 0): Mono-FEC "
            << util::TextTable::fmt(
                   lpr::balanced_share(report.iotps,
                                       lpr::TunnelClass::kMonoFec),
                   3)
            << ", Multi-FEC "
            << util::TextTable::fmt(
                   lpr::balanced_share(report.iotps,
                                       lpr::TunnelClass::kMultiFec),
                   3)
            << '\n';
  return 0;
}
