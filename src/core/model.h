// Data model of the LPR (Label Pattern Recognition) algorithm — the paper's
// primary contribution.
//
// Terminology (paper Sec. 3):
//  * LSP: one observed Label Switched Path — the maximal run of label-quoting
//    hops in a trace, together with its entry hop (Ingress LER) and exit hop
//    (Egress LER).
//  * IOTP ("In-Out Transit Pair"): the set of LSPs sharing the same
//    <Ingress LER; Egress LER> pair inside one AS. An IOTP may have several
//    "branches" (distinct LSPs), physically different (IP addresses) or only
//    logically different (labels).
//
// Two representations, one per job:
//  * LspTable — every LSP *observation* (one per complete labeled run of a
//    trace): flat POD rows over one LSR pool and one label pool, filled by
//    extraction and read by the filters, grouping, alias inference and the
//    egress trees. Each row's content hash is computed once, when the row
//    is appended (or its endpoints rewritten), with exactly the chain of
//    Lsp::content_hash.
//  * Lsp — a self-contained LSP object, materialized only for the distinct
//    branches of an IOTP (IotpRecord::variants) or an egress tree: the
//    classifier, the reports and the .mumc codec read these.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/ipv4.h"

namespace mum::lpr {

// One label-revealing hop inside an LSP: the interface address and the label
// values of the quoted stack (top first).
struct LsrHop {
  net::Ipv4Addr addr;
  std::vector<std::uint32_t> labels;

  friend bool operator==(const LsrHop&, const LsrHop&) = default;
  friend auto operator<=>(const LsrHop&, const LsrHop&) = default;
};

// One observed LSP. Equality covers everything the Persistence filter and
// the classifier compare: endpoints plus the full (address, labels) sequence.
struct Lsp {
  std::uint32_t asn = 0;        // AS the tunnel lives in (0 = inconsistent)
  net::Ipv4Addr ingress;        // hop preceding the labeled run
  net::Ipv4Addr egress;         // tunnel exit point (see extract.h)
  std::vector<LsrHop> lsrs;     // the labeled hops, in order
  // True when the last labeled hop is itself the Egress LER (no PHP): it then
  // must not count as an *intermediate* LSR for the length metric.
  bool egress_labeled = false;

  // Number of intermediate LSRs (paper's length unit: LERs excluded).
  int intermediate_lsr_count() const noexcept {
    const int n = static_cast<int>(lsrs.size()) - (egress_labeled ? 1 : 0);
    return n < 0 ? 0 : n;
  }

  // Content identity (ignores which trace/destination revealed it).
  friend bool operator==(const Lsp& a, const Lsp& b) {
    return a.asn == b.asn && a.ingress == b.ingress && a.egress == b.egress &&
           a.lsrs == b.lsrs;
  }

  // Stable content hash for persistence sets / dedup maps.
  std::uint64_t content_hash() const;

  std::string to_string() const;
};

// IOTP identity.
struct IotpKey {
  std::uint32_t asn = 0;
  net::Ipv4Addr ingress;
  net::Ipv4Addr egress;

  friend bool operator==(const IotpKey&, const IotpKey&) = default;
  friend auto operator<=>(const IotpKey&, const IotpKey&) = default;
};

struct IotpKeyHash {
  std::size_t operator()(const IotpKey& k) const noexcept;
};

// One LSP observation: the LSP's endpoints and content hash, which
// destination AS the covering trace was heading to (TargetAS /
// TransitDiversity need it) and which monitor ran it, plus the range of its
// labeled hops in the table's LSR pool.
struct LspRow {
  std::uint32_t asn = 0;
  net::Ipv4Addr ingress;
  net::Ipv4Addr egress;
  std::uint32_t dst_asn = 0;
  std::uint32_t monitor_id = 0;
  std::uint32_t lsr_begin = 0;  // first LSR in the pool
  std::uint32_t lsr_count = 0;
  bool egress_labeled = false;  // see Lsp::egress_labeled
  std::uint64_t content_hash = 0;  // Lsp::content_hash of the row's LSP

  IotpKey key() const noexcept { return {asn, ingress, egress}; }
};

// One labeled hop of a row: its address and the range of its quoted label
// values (top first) in the table's label pool.
struct LsrEntry {
  net::Ipv4Addr addr;
  std::uint32_t label_begin = 0;
  std::uint32_t label_count = 0;
};

// LSP observations as flat rows over two pools. Rows are appended with
// begin_row / add_lsr / add_label / end_row (no interleaving between rows),
// or copied from another table with their pool ranges rebased. Moving or
// dropping a table is three vector moves or frees, whatever it holds.
class LspTable {
 public:
  std::size_t size() const noexcept { return rows_.size(); }
  bool empty() const noexcept { return rows_.empty(); }
  const LspRow& row(std::size_t i) const noexcept { return rows_[i]; }
  std::span<const LspRow> rows() const noexcept { return rows_; }
  std::span<const LsrEntry> lsrs(const LspRow& row) const noexcept {
    return {lsrs_.data() + row.lsr_begin, row.lsr_count};
  }
  std::span<const std::uint32_t> labels(const LsrEntry& lsr) const noexcept {
    return {labels_.data() + lsr.label_begin, lsr.label_count};
  }
  std::size_t lsr_pool_size() const noexcept { return lsrs_.size(); }
  std::size_t label_pool_size() const noexcept { return labels_.size(); }

  // Content equality of two rows, as Lsp::operator== (endpoints plus the
  // (address, labels) sequence; egress_labeled is not compared): the
  // content hashes first, then the pools.
  bool same_lsp(std::size_t a, std::size_t b) const noexcept;
  // Row i as a self-contained Lsp.
  Lsp lsp(std::size_t i) const;

  void reserve(std::size_t rows, std::size_t lsrs, std::size_t labels);

  // --- append protocol ---------------------------------------------------
  // begin_row takes the row's header fields (its pool range and hash are
  // set here), add_lsr opens the next labeled hop, add_label appends one
  // label value to it, and end_row computes the content hash.
  void begin_row(const LspRow& head);
  void add_lsr(net::Ipv4Addr addr);
  void add_label(std::uint32_t label);
  void end_row() noexcept;

  // Append every row of `other`, in order.
  void append(const LspTable& other);
  // Append row i of `other`.
  void append_row(const LspTable& other, std::size_t i);
  // Replace row i's endpoints; its content hash is recomputed.
  void set_endpoints(std::size_t i, net::Ipv4Addr ingress,
                     net::Ipv4Addr egress) noexcept;

 private:
  std::uint64_t hash_of(const LspRow& row) const noexcept;

  std::vector<LspRow> rows_;
  std::vector<LsrEntry> lsrs_;
  std::vector<std::uint32_t> labels_;
};

// The paper's four tunnel classes (Fig. 3 / Algorithm 1).
enum class TunnelClass : std::uint8_t {
  kMonoLsp,      // single LSP, no observable diversity
  kMultiFec,     // >1 label for some common IP => RSVP-TE style TE
  kMonoFec,      // multi-LSP, single FEC => IGP ECMP under LDP
  kUnclassified, // no common IP (PHP-converged at the egress only)
};

// Mono-FEC sub-split (Fig. 4(c) vs 4(d)).
enum class MonoFecKind : std::uint8_t {
  kNotApplicable,
  kParallelLinks,    // identical label sequences, different addresses
  kRoutersDisjoint,  // labels AND addresses differ somewhere
};

const char* to_cstring(TunnelClass c) noexcept;
const char* to_cstring(MonoFecKind k) noexcept;

// A classified IOTP with its measured properties.
struct IotpRecord {
  IotpKey key;
  std::vector<Lsp> variants;        // distinct LSPs (the branches)
  // Destination ASes reached through it — sorted, deduplicated. Kept as a
  // flat vector (append during grouping, normalized once): the set is only
  // ever built and iterated, never searched.
  std::vector<std::uint32_t> dst_asns;
  TunnelClass tunnel_class = TunnelClass::kUnclassified;
  MonoFecKind mono_fec_kind = MonoFecKind::kNotApplicable;
  bool classified_by_alias_heuristic = false;  // Sec. 5 extension fired

  // Paper metrics (Sec. 4.3).
  int length = 0;    // intermediate LSRs of the longest branch
  int width = 0;     // number of branches
  int symmetry = 0;  // length(longest) - length(shortest)
};

}  // namespace mum::lpr
