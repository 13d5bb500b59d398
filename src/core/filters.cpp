#include "core/filters.h"

#include <algorithm>
#include <unordered_map>

namespace mum::lpr {

namespace {

// A row's IOTP key packed into two words (asn:ingress, egress:tiebreak),
// plus the row: sorting orders rows by IOTP, then by the tiebreak — the
// destination AS for TransitDiversity, the row itself for grouping.
struct IotpSortKey {
  std::uint64_t key_hi;
  std::uint64_t key_lo;
  std::uint32_t row;

  IotpSortKey(const LspRow& r, std::uint32_t i, std::uint32_t tiebreak)
      : key_hi((std::uint64_t{r.asn} << 32) | r.ingress.value()),
        key_lo((std::uint64_t{r.egress.value()} << 32) | tiebreak),
        row(i) {}

  bool same_iotp(const IotpSortKey& o) const noexcept {
    return key_hi == o.key_hi && (key_lo >> 32) == (o.key_lo >> 32);
  }
  friend bool operator<(const IotpSortKey& a, const IotpSortKey& b) noexcept {
    return a.key_hi != b.key_hi ? a.key_hi < b.key_hi : a.key_lo < b.key_lo;
  }
};

// Content hashes for Persistence lookups: open addressing, sized up front
// for `expected` hashes. A zero slot is empty, so a zero hash is kept apart.
class HashSet {
 public:
  explicit HashSet(std::size_t expected) {
    unsigned bits = 4;
    while ((std::size_t{1} << bits) < 2 * expected) ++bits;
    slots_.assign(std::size_t{1} << bits, 0);
    shift_ = 64 - bits;
  }

  void insert(std::uint64_t h) {
    if (h == 0) {
      zero_ = true;
    } else {
      slots_[slot_of(h)] = h;
    }
  }
  bool contains(std::uint64_t h) const {
    return h == 0 ? zero_ : slots_[slot_of(h)] == h;
  }

 private:
  // The slot holding h, or the empty slot where it would go (Fibonacci
  // hashing, high bits).
  std::size_t slot_of(std::uint64_t h) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (h * 0x9E3779B97F4A7C15ull) >> shift_;
    while (slots_[i] != h && slots_[i] != 0) i = (i + 1) & mask;
    return i;
  }

  std::vector<std::uint64_t> slots_;
  unsigned shift_ = 60;
  bool zero_ = false;
};

}  // namespace

FilteredCycle apply_filters(const ExtractedSnapshot& cycle,
                            std::span<const ExtractedSnapshot> following,
                            const FilterConfig& config) {
  FilteredCycle out;
  out.cycle_id = cycle.cycle_id;
  out.date = cycle.date;
  out.stats.observed = cycle.stats.lsps_observed;
  out.stats.complete = cycle.observations.size();
  const LspTable& table = cycle.observations;

  // --- IntraAS: extraction marked multi-AS runs with asn == 0. -----------
  std::vector<std::uint32_t> kept;  // surviving row indices, in order
  kept.reserve(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (config.enable_intra_as && table.row(i).asn == 0) continue;
    kept.push_back(static_cast<std::uint32_t>(i));
  }
  out.stats.after_intra_as = kept.size();

  // --- TargetAS: destination must sit outside the tunnel's AS. -----------
  if (config.enable_target_as) {
    std::erase_if(kept, [&](std::uint32_t i) {
      return table.row(i).dst_asn == table.row(i).asn;
    });
  }
  out.stats.after_target_as = kept.size();

  // --- TransitDiversity: IOTP must serve >= 2 destination ASes. ----------
  if (config.enable_transit_diversity) {
    // Sorted by (IOTP, destination AS), each IOTP's rows are contiguous
    // and its distinct destinations adjacent.
    std::vector<IotpSortKey> entries;
    entries.reserve(kept.size());
    for (const std::uint32_t i : kept) {
      entries.emplace_back(table.row(i), i, table.row(i).dst_asn);
    }
    std::sort(entries.begin(), entries.end());
    std::vector<bool> diverse(table.size());
    for (std::size_t begin = 0, end; begin < entries.size(); begin = end) {
      bool two = false;
      for (end = begin + 1; end < entries.size() &&
                            entries[end].same_iotp(entries[begin]);
           ++end) {
        two = two || entries[end].key_lo != entries[begin].key_lo;
      }
      for (std::size_t e = begin; e < end; ++e) {
        diverse[entries[e].row] = two;
      }
    }
    std::erase_if(kept, [&](std::uint32_t i) { return !diverse[i]; });
  }
  out.stats.after_transit_diversity = kept.size();

  // --- Persistence: reappear within the next j snapshots of the month. ---
  if (config.enable_persistence) {
    const int j = std::min<int>(config.persistence_j,
                                static_cast<int>(following.size()));
    std::size_t expected = 0;
    for (int s = 0; s < j; ++s) {
      expected += following[static_cast<std::size_t>(s)].observations.size();
    }
    HashSet persistent(expected);
    for (int s = 0; s < j; ++s) {
      const auto& snapshot = following[static_cast<std::size_t>(s)];
      for (const LspRow& row : snapshot.observations.rows()) {
        persistent.insert(row.content_hash);
      }
    }
    const auto persists = [&](std::uint32_t i) {
      return persistent.contains(table.row(i).content_hash);
    };

    // Count per-AS attrition to detect dynamic ASes before erasing.
    std::unordered_map<std::uint32_t, std::uint64_t> total_per_as;
    std::unordered_map<std::uint32_t, std::uint64_t> kept_per_as;
    for (const std::uint32_t i : kept) {
      ++total_per_as[table.row(i).asn];
      if (persists(i)) ++kept_per_as[table.row(i).asn];
    }
    for (const auto& [asn, total] : total_per_as) {
      const std::uint64_t still = kept_per_as[asn];
      const double surviving =
          static_cast<double>(still) / static_cast<double>(total);
      // Reinjection applies when the filter deletes (essentially) the whole
      // set: churn that fast is label dynamics, not routing noise.
      if (surviving <= 1.0 - config.dynamic_threshold) {
        out.dynamic_asns.insert(asn);
      }
    }
    std::erase_if(kept, [&](std::uint32_t i) {
      if (out.dynamic_asns.contains(table.row(i).asn)) return false;
      return !persists(i);  // reinjected above when the AS is dynamic
    });
  }
  out.stats.after_persistence = kept.size();

  for (const std::uint32_t i : kept) out.observations.append_row(table, i);
  return out;
}

std::vector<IotpRecord> group_iotps(const LspTable& observations) {
  // Rows in IOTP key order, ties in row order: each IOTP's rows are
  // contiguous and in first-seen order, and the records come out sorted.
  std::vector<IotpSortKey> order;
  order.reserve(observations.size());
  for (std::size_t i = 0; i < observations.size(); ++i) {
    const auto row = static_cast<std::uint32_t>(i);
    order.emplace_back(observations.row(i), row, row);
  }
  std::sort(order.begin(), order.end());

  std::vector<IotpRecord> out;
  std::vector<std::uint32_t> variants;  // first row of each distinct LSP
  for (std::size_t begin = 0, end; begin < order.size(); begin = end) {
    for (end = begin + 1;
         end < order.size() && order[end].same_iotp(order[begin]); ++end) {
    }
    IotpRecord& rec = out.emplace_back();
    rec.key = observations.row(order[begin].row).key();
    rec.dst_asns.reserve(end - begin);
    variants.clear();
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t i = order[k].row;
      rec.dst_asns.push_back(observations.row(i).dst_asn);
      const bool seen =
          std::any_of(variants.begin(), variants.end(), [&](std::uint32_t v) {
            return observations.same_lsp(v, i);
          });
      if (!seen) variants.push_back(i);
    }
    // An Lsp is materialized per distinct variant only.
    rec.variants.reserve(variants.size());
    for (const std::uint32_t v : variants) {
      rec.variants.push_back(observations.lsp(v));
    }
    // Normalize the destination list (sorted + deduplicated).
    std::sort(rec.dst_asns.begin(), rec.dst_asns.end());
    rec.dst_asns.erase(std::unique(rec.dst_asns.begin(), rec.dst_asns.end()),
                       rec.dst_asns.end());
  }
  return out;
}

}  // namespace mum::lpr
