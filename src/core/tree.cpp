#include "core/tree.h"

#include <algorithm>
#include <map>

namespace mum::lpr {

const char* to_cstring(TreeClass c) noexcept {
  switch (c) {
    case TreeClass::kSingleBranch: return "Single-Branch";
    case TreeClass::kLdpConsistent: return "LDP-Consistent";
    case TreeClass::kMultiFec: return "Multi-FEC";
  }
  return "?";
}

namespace {

void classify_tree(EgressTree& tree) {
  if (tree.branches.size() <= 1) {
    tree.tree_class = TreeClass::kSingleBranch;
    tree.max_labels_per_router =
        tree.branches.empty() || tree.branches[0].lsrs.empty() ? 0 : 1;
    tree.max_in_degree = tree.branches.empty() ? 0 : 1;
    return;
  }

  // Labels per router address across all branches, and the upstream
  // addresses feeding each address (DAG in-degree). The hop before the
  // first LSR is the ingress (tunnel entry).
  std::map<net::Ipv4Addr, std::set<std::uint32_t>> labels_at;
  std::map<net::Ipv4Addr, std::set<net::Ipv4Addr>> feeders;
  for (const Lsp& lsp : tree.branches) {
    net::Ipv4Addr upstream = lsp.ingress;
    for (const LsrHop& hop : lsp.lsrs) {
      if (!hop.labels.empty()) {
        labels_at[hop.addr].insert(hop.labels.front());
      }
      feeders[hop.addr].insert(upstream);
      upstream = hop.addr;
    }
    feeders[lsp.egress].insert(upstream);
  }

  int max_labels = 0;
  for (const auto& [addr, labels] : labels_at) {
    max_labels = std::max(max_labels, static_cast<int>(labels.size()));
  }
  int max_in = 0;
  for (const auto& [addr, up] : feeders) {
    max_in = std::max(max_in, static_cast<int>(up.size()));
  }
  tree.max_labels_per_router = max_labels;
  tree.max_in_degree = max_in;
  tree.tree_class = max_labels > 1 ? TreeClass::kMultiFec
                                   : TreeClass::kLdpConsistent;
}

}  // namespace

std::vector<EgressTree> build_egress_trees(const LspTable& observations) {
  // Each tree with the row of each of its branches' first sighting.
  struct Growing {
    EgressTree tree;
    std::vector<std::uint32_t> branch_rows;
  };
  std::map<TreeKey, Growing> trees;
  for (std::size_t i = 0; i < observations.size(); ++i) {
    const LspRow& row = observations.row(i);
    const TreeKey key{row.asn, row.egress};
    Growing& growing = trees[key];
    EgressTree& tree = growing.tree;
    tree.key = key;
    tree.ingresses.insert(row.ingress);
    tree.dst_asns.insert(row.dst_asn);
    std::vector<std::uint32_t>& rows = growing.branch_rows;
    const bool seen =
        std::any_of(rows.begin(), rows.end(), [&](std::uint32_t b) {
          return observations.same_lsp(b, i);
        });
    if (!seen) {
      rows.push_back(static_cast<std::uint32_t>(i));
      tree.branches.push_back(observations.lsp(i));
    }
  }
  std::vector<EgressTree> out;
  out.reserve(trees.size());
  for (auto& [key, growing] : trees) {
    classify_tree(growing.tree);
    out.push_back(std::move(growing.tree));
  }
  return out;
}

TreeStats summarize(const std::vector<EgressTree>& trees) {
  TreeStats stats;
  stats.trees = trees.size();
  for (const EgressTree& tree : trees) {
    stats.branches_total += tree.branches.size();
    switch (tree.tree_class) {
      case TreeClass::kSingleBranch: ++stats.single_branch; break;
      case TreeClass::kLdpConsistent: ++stats.ldp_consistent; break;
      case TreeClass::kMultiFec: ++stats.multi_fec; break;
    }
  }
  return stats;
}

}  // namespace mum::lpr
