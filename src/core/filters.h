// The LPR filtering stage (paper Sec. 3.1) — four filters applied in order
// after the Incomplete-LSP rejection already done at extraction:
//
//   IntraAS          per LSP   all LSP addresses in one AS
//   TargetAS         per LSP   trace destination outside the tunnel's AS
//   TransitDiversity per IOTP  IOTP must reach >= 2 distinct destination ASes
//   Persistence      per LSP   LSP of cycle X must reappear in one of the
//                              j following snapshots of the same month
//
// Plus the "dynamic AS" rule: when Persistence would wipe out (nearly) all
// LSPs of an AS, the whole set is reinjected and the AS is tagged dynamic —
// frequent label churn is itself a TE signal (Sec. 4.5), not noise.
//
// The filters work on the extracted LspTable's rows and its hash column:
// Persistence looks row hashes up in the sorted hash columns of the
// following snapshots (collisions are astronomically unlikely at our
// scales), TransitDiversity counts destination ASes per IOTP by sorting
// (IotpKey, dst_asn) pairs, and the survivors are copied row by row into
// the filtered table, in their extracted order. group_iotps then walks
// those rows and materializes an Lsp only for each distinct variant of an
// IOTP.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/extract.h"
#include "core/model.h"

namespace mum::lpr {

struct FilterConfig {
  // Number of subsequent snapshots consulted by Persistence (paper: j = 2).
  int persistence_j = 2;
  // Share of an AS's LSPs that must vanish for the AS to count as dynamic
  // ("the vast majority"); reinjection then restores the whole set.
  double dynamic_threshold = 0.85;
  bool enable_intra_as = true;
  bool enable_target_as = true;
  bool enable_transit_diversity = true;
  bool enable_persistence = true;
};

// LSP counts surviving each stage (Table 1 numerators; the denominator is
// `observed`, i.e. the count before the Incomplete rejection).
struct FilterStats {
  std::uint64_t observed = 0;           // complete + incomplete
  std::uint64_t complete = 0;           // after Incomplete
  std::uint64_t after_intra_as = 0;
  std::uint64_t after_target_as = 0;
  std::uint64_t after_transit_diversity = 0;
  std::uint64_t after_persistence = 0;  // final (includes reinjected)
};

struct FilteredCycle {
  std::uint32_t cycle_id = 0;
  std::string date;
  LspTable observations;  // the survivors, in extracted order
  std::unordered_set<std::uint32_t> dynamic_asns;  // tagged by reinjection
  FilterStats stats;
};

// Apply the full filter pipeline to the cycle snapshot of a month.
// `following` are the extracted snapshots X+1 ... X+j of the same month —
// the tail of the month lpr::run_pipeline takes (any extra entries beyond
// persistence_j are ignored; fewer entries simply relax nothing — an LSP
// must appear in at least one of them, so an empty span with persistence
// enabled erases everything and triggers reinjection per AS).
FilteredCycle apply_filters(const ExtractedSnapshot& cycle,
                            std::span<const ExtractedSnapshot> following,
                            const FilterConfig& config);

// Group filtered observations into IOTPs, sorted by key: variants are
// deduplicated by content hash confirmed by pool equality and kept in
// first-seen order, destination ASes accumulated. Classification runs on
// this.
std::vector<IotpRecord> group_iotps(const LspTable& observations);

}  // namespace mum::lpr
