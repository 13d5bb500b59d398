// Explicit-tunnel extraction (the "Filtering and formatting" front half of
// Fig. 3, up to and including the Incomplete-LSP rejection).
//
// An explicit tunnel is a maximal run of hops whose ICMP replies quote an
// RFC 4950 label stack. For each run we derive one LSP:
//
//   * Ingress LER  = the hop immediately before the run (the router that
//     pushed the stack replies before labels appear).
//   * Egress LER   = the hop immediately after the run when it maps to the
//     same AS (PHP popped the stack one hop early — the usual case), else the
//     last labeled hop itself (no PHP: the egress quotes its own label, and
//     the next hop already belongs to the neighbouring AS).
//
// A run is *incomplete* — and dropped, counted — when the run or either
// endpoint hop is anonymous, or when the run touches the ends of the trace.
//
// Each complete run becomes one LspTable row (model.h), written straight
// from the hop columns and the LSE words (label = word >> 12) with its
// content hash computed as the row closes; nothing is allocated per LSP.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/model.h"
#include "dataset/ip2as.h"
#include "dataset/trace_batch.h"
#include "util/thread_pool.h"

namespace mum::lpr {

struct ExtractStats {
  std::uint64_t traces_total = 0;
  std::uint64_t traces_with_explicit_tunnel = 0;
  std::uint64_t lsps_observed = 0;    // complete + incomplete
  std::uint64_t lsps_incomplete = 0;  // dropped by the Incomplete filter
  // Unique responding addresses, split by MPLS involvement (Fig. 5(b)):
  // an address is "MPLS" when it ever appears inside a labeled run.
  std::uint64_t mpls_ips = 0;
  std::uint64_t non_mpls_ips = 0;

  // Deterministic accumulation across workers / snapshots: every counter is
  // summed. Note the ip counters are unique *within* each operand only —
  // merged totals over shards that may share addresses are upper bounds
  // (stitch_blocks takes the exact union within a snapshot instead).
  ExtractStats& merge(const ExtractStats& other) noexcept;
};

struct ExtractedSnapshot {
  std::uint32_t cycle_id = 0;
  std::uint32_t sub_index = 0;
  std::string date;
  LspTable observations;
  ExtractStats stats;
};

// The extraction of one block of a snapshot's traces — a monitor's block
// inside the campaign fan-out, or a whole snapshot taken as one block.
// `stats` carries the block's trace and LSP counters; its unique-address
// counters stay 0, because uniqueness is a property of the snapshot:
// stitch_blocks settles them from `census`.
struct ExtractedBlock {
  LspTable observations;
  ExtractStats stats;
  // The block's unique responding addresses, one word each, in no
  // particular order: (addr << 1) | 1 when the address appears inside a
  // labeled run, (addr << 1) otherwise.
  std::vector<std::uint64_t> census;
};

// Extract all complete explicit LSPs from an annotated block, walking its
// columns through TraceView/HopView. Traces must have been annotated with
// Ip2As first (hop ASNs are consumed here); the `ip2as` reference is used
// for endpoint resolution of unmapped destinations. Reads nothing outside
// the block, so blocks extract concurrently.
ExtractedBlock extract_block(const dataset::TraceBatch& traces,
                             const dataset::Ip2As& ip2as);

// One snapshot from its blocks, given in monitor order (consumed): the
// blocks' tables are appended in order with their pool ranges rebased (row
// hashes carry over), counters summed, and the unique-address
// counters taken over the union of the blocks' censuses — an address
// labeled in any block counts as MPLS. Equals extract_lsps over the
// snapshot that merges the same blocks.
ExtractedSnapshot stitch_blocks(std::uint32_t cycle_id,
                                std::uint32_t sub_index, std::string date,
                                std::vector<ExtractedBlock>& blocks);

// Extract a materialized snapshot: its traces as one block, stitched.
ExtractedSnapshot extract_lsps(const dataset::SnapshotBatch& snapshot,
                               const dataset::Ip2As& ip2as);

// Extract a materialized (or re-ingested) month, one extract_lsps per
// snapshot, in snapshot order: element 0 is the cycle snapshot, the rest
// feed Persistence — the form lpr::run_pipeline takes. The snapshots
// extract independently, so with a pool they fan out over it; the result
// is the same at any thread count.
std::vector<ExtractedSnapshot> extract_month(const dataset::MonthData& month,
                                             const dataset::Ip2As& ip2as,
                                             util::ThreadPool* pool = nullptr);

// Per-AS unique-address census over one snapshot (Table 2 rows): for each
// ASN, how many distinct responding addresses were seen inside labeled runs
// (MPLS) vs outside (non-MPLS).
struct AsIpCensus {
  std::uint64_t mpls_ips = 0;
  std::uint64_t non_mpls_ips = 0;
};
std::unordered_map<std::uint32_t, AsIpCensus> census_by_as(
    const dataset::SnapshotBatch& snapshot);

}  // namespace mum::lpr
