// LSP-tree analysis — the paper's Sec.-5 extension: index LSPs only
// through their Egress LER instead of the <Ingress, Egress> pair.
//
// LDP builds one LSP-*tree* per FEC: every router binds a single label for
// the egress's loopback and advertises it to ALL upstream neighbours. So
// across a whole egress-rooted tree (any ingress), a given router must show
// one label. RSVP-TE breaks that: labels are per-LSP, so a router inside a
// TE mesh toward one egress shows several labels.
//
// Indexing by egress classifies strictly more LSPs than IOTP indexing —
// branches that never share an ingress still join the same tree — which is
// exactly the gain the paper anticipates ("more LSPs will be classified ...
// because they will be indexed only through the Egress LER"). Because of
// ECMP the structure is really a DAG, so we report per-router in-degrees
// rather than assuming a tree.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/model.h"

namespace mum::lpr {

// Identity of one egress-rooted tree.
struct TreeKey {
  std::uint32_t asn = 0;
  net::Ipv4Addr egress;

  friend bool operator==(const TreeKey&, const TreeKey&) = default;
  friend auto operator<=>(const TreeKey&, const TreeKey&) = default;
};

enum class TreeClass : std::uint8_t {
  kSingleBranch,   // one LSP only — nothing to compare
  kLdpConsistent,  // every router shows one label: an LDP LSP-tree
  kMultiFec,       // >= 2 labels at some router: RSVP-TE toward this egress
};

const char* to_cstring(TreeClass c) noexcept;

struct EgressTree {
  TreeKey key;
  std::vector<Lsp> branches;               // distinct member LSPs
  std::set<net::Ipv4Addr> ingresses;       // distinct entry points
  std::set<std::uint32_t> dst_asns;
  TreeClass tree_class = TreeClass::kSingleBranch;
  // Max number of distinct labels observed at one router address.
  int max_labels_per_router = 0;
  // Max number of distinct upstream addresses feeding one router address
  // (the DAG in-degree the paper says to expect instead of a tree).
  int max_in_degree = 0;
};

// Group observations into egress-rooted trees and classify each. Branches
// are deduplicated by content hash confirmed by pool equality, kept in
// first-seen order, and materialized as Lsp objects.
std::vector<EgressTree> build_egress_trees(const LspTable& observations);

struct TreeStats {
  std::uint64_t trees = 0;
  std::uint64_t single_branch = 0;
  std::uint64_t ldp_consistent = 0;
  std::uint64_t multi_fec = 0;
  // LSPs classified under tree indexing vs IOTP indexing (tree indexing
  // never classifies fewer — the Sec. 5 claim, asserted in tests).
  std::uint64_t branches_total = 0;
};

TreeStats summarize(const std::vector<EgressTree>& trees);

}  // namespace mum::lpr
