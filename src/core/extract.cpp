#include "core/extract.h"

#include <unordered_set>
#include <utility>

namespace mum::lpr {

namespace {

using AddrSet = std::unordered_set<net::Ipv4Addr>;
using AsAddrSets = std::unordered_map<std::uint32_t, AddrSet>;

// Responding addresses, each with an "inside a labeled run" bit: open
// addressing over (addr << 1) | labeled words, the bit OR-ed on every
// sighting. Address 0 (the anonymous-hop sentinel) never enters, so a zero
// word marks an empty slot.
class AddrCensus {
 public:
  // Sized so `expected` addresses fit without growing.
  explicit AddrCensus(std::size_t expected = 0) {
    unsigned bits = kMinBits;
    while ((std::size_t{1} << bits) < 2 * expected) ++bits;
    slots_.assign(std::size_t{1} << bits, 0);
    shift_ = 32 - bits;
  }

  void add(std::uint64_t word) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    const auto addr = static_cast<std::uint32_t>(word >> 1);
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing, high bits (see dataset::AsnCache).
    for (std::size_t i = (addr * 0x9E3779B9u) >> shift_;; i = (i + 1) & mask) {
      std::uint64_t& slot = slots_[i];
      if (slot == 0) {
        slot = word;
        ++used_;
        return;
      }
      if ((slot >> 1) == addr) {
        slot |= word & 1;
        return;
      }
    }
  }
  void add(std::uint32_t addr, bool labeled) {
    add((std::uint64_t{addr} << 1) | std::uint64_t{labeled});
  }

  // Every address's word, in slot order.
  std::vector<std::uint64_t> words() const {
    std::vector<std::uint64_t> out;
    out.reserve(used_);
    for (const std::uint64_t slot : slots_) {
      if (slot != 0) out.push_back(slot);
    }
    return out;
  }

  std::size_t size() const noexcept { return used_; }
  std::size_t labeled() const noexcept {
    std::size_t n = 0;
    for (const std::uint64_t slot : slots_) n += slot & 1;
    return n;
  }

 private:
  static constexpr unsigned kMinBits = 12;

  void grow() {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, 0);
    --shift_;
    used_ = 0;
    for (const std::uint64_t slot : old) {
      if (slot != 0) add(slot);
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t used_ = 0;
  unsigned shift_ = 32 - kMinBits;
};

// The one ASN every mapped hop of the labeled run agrees on; 0 when the
// run maps to no AS, or to two or more — multi-AS runs carry asn=0 so the
// IntraAS filter rejects them, whatever the hop majority.
std::uint32_t run_asn(const dataset::TraceView& t, std::size_t first,
                      std::size_t last) {
  std::uint32_t asn = dataset::kUnknownAsn;
  for (std::size_t i = first; i <= last; ++i) {
    const std::uint32_t hop_asn = t.hop(i).asn();
    if (hop_asn == dataset::kUnknownAsn || hop_asn == asn) continue;
    if (asn != dataset::kUnknownAsn) return 0;
    asn = hop_asn;
  }
  return asn;
}

void extract_from_trace(const dataset::TraceView& t,
                        const dataset::Ip2As& ip2as, ExtractedBlock& out,
                        AddrCensus& census) {
  ++out.stats.traces_total;
  bool saw_tunnel = false;

  const std::size_t n = t.hop_count();
  const auto anonymous = [&](std::size_t k) { return t.hop(k).anonymous(); };
  const auto has_labels = [&](std::size_t k) { return t.hop(k).has_labels(); };
  const auto addr = [&](std::size_t k) { return t.hop(k).addr(); };
  // The responding hops inside labeled runs are exactly the labeled ones:
  // a run extends only over labeled hops and '*'s wedged between them.
  for (std::size_t k = 0; k < n; ++k) {
    if (!anonymous(k)) census.add(addr(k).value(), has_labels(k));
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

    // Completeness: need both endpoint hops, responding, and no '*' inside.
    const bool has_ingress = first > 0 && !anonymous(first - 1);
    const bool has_exit = last + 1 < n && !anonymous(last + 1);
    if (run_has_anonymous || !has_ingress || !has_exit) {
      ++out.stats.lsps_incomplete;
      continue;
    }

    LspRow head;
    head.dst_asn = t.dst_asn() != 0 ? t.dst_asn() : ip2as.lookup(t.dst());
    head.monitor_id = t.monitor_id();
    head.ingress = addr(first - 1);
    head.asn = run_asn(t, first, last);

    // Exit point: the hop after the run when it still belongs to the
    // tunnel's AS (PHP), else the last labeled hop (non-PHP egress).
    if (t.hop(last + 1).asn() == head.asn && head.asn != 0) {
      head.egress = addr(last + 1);
      head.egress_labeled = false;
    } else {
      head.egress = addr(last);
      head.egress_labeled = true;
    }

    LspTable& table = out.observations;
    table.begin_row(head);
    for (std::size_t k = first; k <= last; ++k) {
      if (anonymous(k)) continue;
      table.add_lsr(addr(k));
      for (const std::uint32_t word : t.hop(k).lse_words()) {
        table.add_label(word >> 12);
      }
    }
    table.end_row();
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

ExtractedBlock extract_block(const dataset::TraceBatch& traces,
                             const dataset::Ip2As& ip2as) {
  ExtractedBlock out;
  AddrCensus census;
  for (std::size_t i = 0; i < traces.trace_count(); ++i) {
    extract_from_trace(traces.view(i), ip2as, out, census);
  }
  out.census = census.words();
  return out;
}

ExtractedSnapshot stitch_blocks(std::uint32_t cycle_id,
                                std::uint32_t sub_index, std::string date,
                                std::vector<ExtractedBlock>& blocks) {
  ExtractedSnapshot out;
  out.cycle_id = cycle_id;
  out.sub_index = sub_index;
  out.date = std::move(date);

  std::size_t rows = 0, lsrs = 0, labels = 0, words = 0;
  for (const ExtractedBlock& block : blocks) {
    rows += block.observations.size();
    lsrs += block.observations.lsr_pool_size();
    labels += block.observations.label_pool_size();
    words += block.census.size();
  }
  out.observations.reserve(rows, lsrs, labels);
  // Census union: an address shared by blocks counts once, as MPLS when
  // any block saw it inside a labeled run.
  AddrCensus census(words);
  for (ExtractedBlock& block : blocks) {
    out.stats.merge(block.stats);
    out.observations.append(block.observations);
    block.observations = LspTable();
    for (const std::uint64_t word : block.census) census.add(word);
  }
  out.stats.mpls_ips = census.labeled();
  out.stats.non_mpls_ips = census.size() - out.stats.mpls_ips;
  return out;
}

ExtractedSnapshot extract_lsps(const dataset::SnapshotBatch& snapshot,
                               const dataset::Ip2As& ip2as) {
  std::vector<ExtractedBlock> blocks;
  blocks.push_back(extract_block(snapshot.traces, ip2as));
  return stitch_blocks(snapshot.cycle_id, snapshot.sub_index, snapshot.date,
                       blocks);
}

std::vector<ExtractedSnapshot> extract_month(const dataset::MonthData& month,
                                             const dataset::Ip2As& ip2as,
                                             util::ThreadPool* pool) {
  std::vector<ExtractedSnapshot> out(month.snapshots.size());
  util::parallel_for(pool, month.snapshots.size(), [&](std::size_t i) {
    out[i] = extract_lsps(month.snapshots[i], ip2as);
  });
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
