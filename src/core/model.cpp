#include "core/model.h"

#include <algorithm>

#include "util/rng.h"

namespace mum::lpr {

namespace {

// The content-hash chain, shared by Lsp::content_hash and the LspTable
// rows: the endpoints, then per labeled hop its address, its labels and a
// delimiter.
std::uint64_t hash_endpoints(std::uint32_t asn, net::Ipv4Addr ingress,
                             net::Ipv4Addr egress) noexcept {
  return util::hash_combine(util::hash_combine(asn, ingress.value()),
                            egress.value());
}

std::uint64_t hash_hop(std::uint64_t h, net::Ipv4Addr addr,
                       std::span<const std::uint32_t> labels) noexcept {
  h = util::hash_combine(h, addr.value());
  for (const std::uint32_t label : labels) h = util::hash_combine(h, label);
  return util::hash_combine(h, 0xfeedULL);  // hop delimiter
}

}  // namespace

std::uint64_t Lsp::content_hash() const {
  std::uint64_t h = hash_endpoints(asn, ingress, egress);
  for (const LsrHop& hop : lsrs) h = hash_hop(h, hop.addr, hop.labels);
  return h;
}

std::string Lsp::to_string() const {
  std::string out = "AS" + std::to_string(asn) + " " + ingress.to_string() +
                    " -> [";
  for (std::size_t i = 0; i < lsrs.size(); ++i) {
    if (i) out += ", ";
    out += lsrs[i].addr.to_string() + "(";
    for (std::size_t j = 0; j < lsrs[i].labels.size(); ++j) {
      if (j) out += "/";
      out += std::to_string(lsrs[i].labels[j]);
    }
    out += ")";
  }
  out += "] -> " + egress.to_string();
  return out;
}

std::uint64_t LspTable::hash_of(const LspRow& row) const noexcept {
  std::uint64_t h = hash_endpoints(row.asn, row.ingress, row.egress);
  for (const LsrEntry& lsr : lsrs(row)) h = hash_hop(h, lsr.addr, labels(lsr));
  return h;
}

bool LspTable::same_lsp(std::size_t a, std::size_t b) const noexcept {
  const LspRow& x = rows_[a];
  const LspRow& y = rows_[b];
  if (x.content_hash != y.content_hash || x.key() != y.key() ||
      x.lsr_count != y.lsr_count) {
    return false;
  }
  const auto xs = lsrs(x);
  const auto ys = lsrs(y);
  for (std::size_t k = 0; k < xs.size(); ++k) {
    if (xs[k].addr != ys[k].addr) return false;
    const auto xl = labels(xs[k]);
    const auto yl = labels(ys[k]);
    if (!std::equal(xl.begin(), xl.end(), yl.begin(), yl.end())) return false;
  }
  return true;
}

Lsp LspTable::lsp(std::size_t i) const {
  const LspRow& row = rows_[i];
  Lsp out;
  out.asn = row.asn;
  out.ingress = row.ingress;
  out.egress = row.egress;
  out.egress_labeled = row.egress_labeled;
  out.lsrs.reserve(row.lsr_count);
  for (const LsrEntry& lsr : lsrs(row)) {
    const auto values = labels(lsr);
    out.lsrs.push_back(LsrHop{lsr.addr, {values.begin(), values.end()}});
  }
  return out;
}

void LspTable::reserve(std::size_t rows, std::size_t lsrs,
                       std::size_t labels) {
  rows_.reserve(rows);
  lsrs_.reserve(lsrs);
  labels_.reserve(labels);
}

void LspTable::begin_row(const LspRow& head) {
  LspRow& row = rows_.emplace_back(head);
  row.lsr_begin = static_cast<std::uint32_t>(lsrs_.size());
  row.lsr_count = 0;
  row.content_hash = 0;
}

void LspTable::add_lsr(net::Ipv4Addr addr) {
  lsrs_.push_back(
      LsrEntry{addr, static_cast<std::uint32_t>(labels_.size()), 0});
  ++rows_.back().lsr_count;
}

void LspTable::add_label(std::uint32_t label) {
  labels_.push_back(label);
  ++lsrs_.back().label_count;
}

void LspTable::end_row() noexcept {
  rows_.back().content_hash = hash_of(rows_.back());
}

void LspTable::append(const LspTable& other) {
  const auto lsr_base = static_cast<std::uint32_t>(lsrs_.size());
  const auto label_base = static_cast<std::uint32_t>(labels_.size());
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
  std::size_t at = lsrs_.size();
  lsrs_.insert(lsrs_.end(), other.lsrs_.begin(), other.lsrs_.end());
  for (; at < lsrs_.size(); ++at) lsrs_[at].label_begin += label_base;
  at = rows_.size();
  rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
  for (; at < rows_.size(); ++at) rows_[at].lsr_begin += lsr_base;
}

void LspTable::append_row(const LspTable& other, std::size_t i) {
  const LspRow& src = other.rows_[i];
  LspRow& row = rows_.emplace_back(src);
  row.lsr_begin = static_cast<std::uint32_t>(lsrs_.size());
  for (const LsrEntry& lsr : other.lsrs(src)) {
    const auto values = other.labels(lsr);
    lsrs_.push_back(LsrEntry{lsr.addr,
                             static_cast<std::uint32_t>(labels_.size()),
                             lsr.label_count});
    labels_.insert(labels_.end(), values.begin(), values.end());
  }
}

void LspTable::set_endpoints(std::size_t i, net::Ipv4Addr ingress,
                             net::Ipv4Addr egress) noexcept {
  LspRow& row = rows_[i];
  row.ingress = ingress;
  row.egress = egress;
  row.content_hash = hash_of(row);
}

std::size_t IotpKeyHash::operator()(const IotpKey& k) const noexcept {
  return static_cast<std::size_t>(util::hash_combine(
      util::hash_combine(k.asn, k.ingress.value()), k.egress.value()));
}

const char* to_cstring(TunnelClass c) noexcept {
  switch (c) {
    case TunnelClass::kMonoLsp: return "Mono-LSP";
    case TunnelClass::kMultiFec: return "Multi-FEC";
    case TunnelClass::kMonoFec: return "Mono-FEC";
    case TunnelClass::kUnclassified: return "Unclassified";
  }
  return "?";
}

const char* to_cstring(MonoFecKind k) noexcept {
  switch (k) {
    case MonoFecKind::kNotApplicable: return "n/a";
    case MonoFecKind::kParallelLinks: return "Parallel Links";
    case MonoFecKind::kRoutersDisjoint: return "Routers Disjoint";
  }
  return "?";
}

}  // namespace mum::lpr
