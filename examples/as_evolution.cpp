// as_evolution: replay one AS's five-year MPLS story (the scenario behind
// the paper's Figs. 10-15) from the command line.
//
//   $ ./as_evolution [asn=1273] [step=6]
//
// Prints, every `step` cycles, the AS's IOTP count and class mix, plus the
// dynamic-label tag when the Persistence filter had to reinject the AS.
#include <cstdlib>
#include <iostream>

#include "core/report.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mum;

  std::uint32_t asn = gen::kAsnVodafone;
  int step = 6;
  if (argc > 1) asn = static_cast<std::uint32_t>(std::atoi(argv[1]));
  if (argc > 2) step = std::max(1, std::atoi(argv[2]));

  gen::Internet internet(gen::GenConfig{});
  if (internet.modeled(asn) == nullptr) {
    std::cerr << "AS" << asn << " is not a modelled transit AS. Try one of:";
    for (const std::uint32_t a : internet.modeled_asns()) {
      std::cerr << ' ' << a;
    }
    std::cerr << '\n';
    return 1;
  }
  const dataset::Ip2As ip2as = internet.build_ip2as();

  std::cout << "MPLS usage evolution of AS" << asn << " ("
            << internet.graph().as_node(asn).name << "), 2010-2014\n\n";
  util::TextTable table({"cycle", "date", "IOTPs", "Mono-LSP", "Multi-FEC",
                         "Mono-FEC", "Unclass.", "dyn", ""});
  for (int cycle = 0; cycle < gen::kCycles; cycle += step) {
    const auto month = gen::CampaignRunner(internet, ip2as).month(cycle);
    const auto report = lpr::run_pipeline(lpr::extract_month(month, ip2as));
    const auto counts = report.as_counts(asn);
    const double total = static_cast<double>(counts.total());
    auto pct = [&](std::uint64_t n) {
      return total > 0 ? util::TextTable::fmt(n / total, 2) : std::string("-");
    };
    const auto dyn = report.dynamic_as.find(asn);
    table.add_row(
        {std::to_string(cycle + 1), gen::cycle_date(cycle),
         util::TextTable::fmt_int(static_cast<std::int64_t>(counts.total())),
         pct(counts.mono_lsp), pct(counts.multi_fec), pct(counts.mono_fec),
         pct(counts.unclassified),
         dyn != report.dynamic_as.end() && dyn->second ? "*" : "",
         util::ascii_bar(total / 80.0, 16)});
  }
  std::cout << table
            << "\n('dyn' marks cycles where the whole tunnel set churned "
               "and was reinjected — Sec. 4.5 label dynamics)\n";
  return 0;
}
