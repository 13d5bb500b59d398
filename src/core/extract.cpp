#include "core/extract.h"

#include <unordered_set>
#include <utility>

namespace mum::lpr {

namespace {

using AddrSet = std::unordered_set<net::Ipv4Addr>;
using AsAddrSets = std::unordered_map<std::uint32_t, AddrSet>;

// Majority ASN of the labeled run; 0 when hops map to no AS at all.
std::uint32_t run_asn(const dataset::TraceView& t, std::size_t first,
                      std::size_t last) {
  std::unordered_map<std::uint32_t, int> votes;
  for (std::size_t i = first; i <= last; ++i) {
    const std::uint32_t asn = t.hop(i).asn();
    if (asn != dataset::kUnknownAsn) ++votes[asn];
  }
  std::uint32_t best = 0;
  int best_votes = 0;
  for (const auto& [asn, n] : votes) {
    if (n > best_votes) {
      best = asn;
      best_votes = n;
    }
  }
  return best;
}

// True when every mapped hop of the run has ASN `asn`.
bool run_is_intra_as(const dataset::TraceView& t, std::size_t first,
                     std::size_t last, std::uint32_t asn) {
  for (std::size_t i = first; i <= last; ++i) {
    const std::uint32_t hop_asn = t.hop(i).asn();
    if (hop_asn != dataset::kUnknownAsn && hop_asn != asn) return false;
  }
  return true;
}

void extract_from_trace(const dataset::TraceView& t,
                        const dataset::Ip2As& ip2as, ExtractedSnapshot& out,
                        AddrSet& mpls_addrs, AddrSet& all_addrs) {
  ++out.stats.traces_total;
  bool saw_tunnel = false;

  const std::size_t n = t.hop_count();
  const auto anonymous = [&](std::size_t k) { return t.hop(k).anonymous(); };
  const auto has_labels = [&](std::size_t k) { return t.hop(k).has_labels(); };
  const auto addr = [&](std::size_t k) { return t.hop(k).addr(); };
  for (std::size_t k = 0; k < n; ++k) {
    if (!anonymous(k)) all_addrs.insert(addr(k));
  }

  std::size_t i = 0;
  while (i < n) {
    if (!has_labels(i)) {
      ++i;
      continue;
    }
    // Maximal labeled run [first, last]. Anonymous hops break the run but
    // make the LSP incomplete (an LSR failed to reply).
    const std::size_t first = i;
    std::size_t last = i;
    bool run_has_anonymous = false;
    while (last + 1 < n) {
      if (has_labels(last + 1)) {
        ++last;
      } else if (anonymous(last + 1) && last + 2 < n && has_labels(last + 2)) {
        // '*' wedged between labeled hops: the run continues but is
        // incomplete in the traceroute sense.
        run_has_anonymous = true;
        last += 2;
      } else {
        break;
      }
    }
    i = last + 1;

    saw_tunnel = true;
    ++out.stats.lsps_observed;
    for (std::size_t k = first; k <= last; ++k) {
      if (!anonymous(k)) mpls_addrs.insert(addr(k));
    }

    // Completeness: need both endpoint hops, responding, and no '*' inside.
    const bool has_ingress = first > 0 && !anonymous(first - 1);
    const bool has_exit = last + 1 < n && !anonymous(last + 1);
    if (run_has_anonymous || !has_ingress || !has_exit) {
      ++out.stats.lsps_incomplete;
      continue;
    }

    const std::uint32_t asn = run_asn(t, first, last);
    LspObservation obs;
    obs.dst_asn = t.dst_asn() != 0 ? t.dst_asn() : ip2as.lookup(t.dst());
    obs.monitor_id = t.monitor_id();
    obs.lsp.ingress = addr(first - 1);
    // Mark multi-AS runs with asn=0 so the IntraAS filter rejects them.
    obs.lsp.asn = run_is_intra_as(t, first, last, asn) ? asn : 0;

    // Exit point: the hop after the run when it still belongs to the
    // tunnel's AS (PHP), else the last labeled hop (non-PHP egress).
    if (t.hop(last + 1).asn() == obs.lsp.asn && obs.lsp.asn != 0) {
      obs.lsp.egress = addr(last + 1);
      obs.lsp.egress_labeled = false;
    } else {
      obs.lsp.egress = addr(last);
      obs.lsp.egress_labeled = true;
    }

    obs.lsp.lsrs.reserve(last - first + 1);
    for (std::size_t k = first; k <= last; ++k) {
      if (anonymous(k)) continue;
      LsrHop lsr;
      lsr.addr = addr(k);
      lsr.labels = t.hop(k).labels();
      obs.lsp.lsrs.push_back(std::move(lsr));
    }
    out.observations.push_back(std::move(obs));
  }

  if (saw_tunnel) ++out.stats.traces_with_explicit_tunnel;
}

}  // namespace

ExtractStats& ExtractStats::merge(const ExtractStats& other) noexcept {
  traces_total += other.traces_total;
  traces_with_explicit_tunnel += other.traces_with_explicit_tunnel;
  lsps_observed += other.lsps_observed;
  lsps_incomplete += other.lsps_incomplete;
  mpls_ips += other.mpls_ips;
  non_mpls_ips += other.non_mpls_ips;
  return *this;
}

ExtractedSnapshot extract_lsps(const dataset::SnapshotBatch& snapshot,
                               const dataset::Ip2As& ip2as) {
  ExtractedSnapshot out;
  out.cycle_id = snapshot.cycle_id;
  out.sub_index = snapshot.sub_index;
  out.date = snapshot.date;

  AddrSet mpls_addrs;
  AddrSet all_addrs;
  for (std::size_t i = 0; i < snapshot.trace_count(); ++i) {
    extract_from_trace(snapshot.traces.view(i), ip2as, out, mpls_addrs,
                       all_addrs);
  }
  out.stats.mpls_ips = mpls_addrs.size();
  for (const auto& addr : all_addrs) {
    if (!mpls_addrs.contains(addr)) ++out.stats.non_mpls_ips;
  }
  return out;
}

std::unordered_map<std::uint32_t, AsIpCensus> census_by_as(
    const dataset::SnapshotBatch& snapshot) {
  AsAddrSets mpls;
  AsAddrSets plain;
  const dataset::TraceBatch& b = snapshot.traces;
  for (std::size_t h = 0; h < b.hop_count(); ++h) {
    const dataset::HopView hop(&b, h);
    if (hop.anonymous() || hop.asn() == dataset::kUnknownAsn) continue;
    (hop.has_labels() ? mpls : plain)[hop.asn()].insert(hop.addr());
  }

  std::unordered_map<std::uint32_t, AsIpCensus> out;
  for (const auto& [asn, addrs] : mpls) out[asn].mpls_ips = addrs.size();
  for (const auto& [asn, addrs] : plain) {
    auto& census = out[asn];
    // Count an address as non-MPLS only if it never appeared labeled.
    const auto it = mpls.find(asn);
    for (const auto& addr : addrs) {
      if (it == mpls.end() || !it->second.contains(addr)) {
        ++census.non_mpls_ips;
      }
    }
  }
  return out;
}

}  // namespace mum::lpr
