// Test-only oracle for the LPR front half: the object-based extraction,
// filters and grouping that lpr::LspTable replaced, kept verbatim apart
// from the census (a plain map here), the label read (word >> 12) and the
// content hash, which is spelled out here as the chain the rows must keep.
//
// Every observation is a self-contained LspObservation (an Lsp with its
// vector of LsrHops, each owning its labels): the filters deep-copy the
// kept ones and hash each LSP on every lookup, and grouping deduplicates
// variants with Lsp::operator==. The production path must agree with it
// exactly — FilterStats, dynamic ASes, every IotpRecord (variant order,
// destination ASes, class) and every row's content hash — which the
// expect_same_* helpers below check.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/alias.h"
#include "core/classify.h"
#include "core/extract.h"
#include "core/filters.h"
#include "core/model.h"
#include "dataset/ip2as.h"
#include "dataset/trace_batch.h"
#include "util/rng.h"

namespace mum::lpr::reference {

// One LSP observation: the LSP plus which destination AS the covering trace
// was heading to (TargetAS / TransitDiversity need this).
struct LspObservation {
  Lsp lsp;
  std::uint32_t dst_asn = 0;
  std::uint32_t monitor_id = 0;
};

struct ExtractedSnapshot {
  std::uint32_t cycle_id = 0;
  std::uint32_t sub_index = 0;
  std::string date;
  std::vector<LspObservation> observations;
  ExtractStats stats;
};

struct FilteredCycle {
  std::uint32_t cycle_id = 0;
  std::string date;
  std::vector<LspObservation> observations;
  std::unordered_set<std::uint32_t> dynamic_asns;
  FilterStats stats;
};

// The content-hash chain: endpoints, then per labeled hop its address, its
// labels and a delimiter.
inline std::uint64_t content_hash(const Lsp& lsp) {
  std::uint64_t h = util::hash_combine(lsp.asn, lsp.ingress.value());
  h = util::hash_combine(h, lsp.egress.value());
  for (const LsrHop& hop : lsp.lsrs) {
    h = util::hash_combine(h, hop.addr.value());
    for (const std::uint32_t label : hop.labels) {
      h = util::hash_combine(h, label);
    }
    h = util::hash_combine(h, 0xfeedULL);  // hop delimiter
  }
  return h;
}

namespace detail {

inline std::uint32_t run_asn(const dataset::TraceView& t, std::size_t first,
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

// Responding address -> "seen inside a labeled run".
using Census = std::unordered_map<std::uint32_t, bool>;

inline void extract_from_trace(const dataset::TraceView& t,
                               const dataset::Ip2As& ip2as,
                               ExtractedSnapshot& out, Census& census) {
  ++out.stats.traces_total;
  bool saw_tunnel = false;

  const std::size_t n = t.hop_count();
  const auto anonymous = [&](std::size_t k) { return t.hop(k).anonymous(); };
  const auto has_labels = [&](std::size_t k) { return t.hop(k).has_labels(); };
  const auto addr = [&](std::size_t k) { return t.hop(k).addr(); };
  for (std::size_t k = 0; k < n; ++k) {
    if (!anonymous(k)) census[addr(k).value()] |= has_labels(k);
  }

  std::size_t i = 0;
  while (i < n) {
    if (!has_labels(i)) {
      ++i;
      continue;
    }
    const std::size_t first = i;
    std::size_t last = i;
    bool run_has_anonymous = false;
    while (last + 1 < n) {
      if (has_labels(last + 1)) {
        ++last;
      } else if (anonymous(last + 1) && last + 2 < n && has_labels(last + 2)) {
        run_has_anonymous = true;
        last += 2;
      } else {
        break;
      }
    }
    i = last + 1;

    saw_tunnel = true;
    ++out.stats.lsps_observed;

    const bool has_ingress = first > 0 && !anonymous(first - 1);
    const bool has_exit = last + 1 < n && !anonymous(last + 1);
    if (run_has_anonymous || !has_ingress || !has_exit) {
      ++out.stats.lsps_incomplete;
      continue;
    }

    LspObservation obs;
    obs.dst_asn = t.dst_asn() != 0 ? t.dst_asn() : ip2as.lookup(t.dst());
    obs.monitor_id = t.monitor_id();
    obs.lsp.ingress = addr(first - 1);
    obs.lsp.asn = run_asn(t, first, last);

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
      for (const std::uint32_t word : t.hop(k).lse_words()) {
        lsr.labels.push_back(word >> 12);
      }
      obs.lsp.lsrs.push_back(std::move(lsr));
    }
    out.observations.push_back(std::move(obs));
  }

  if (saw_tunnel) ++out.stats.traces_with_explicit_tunnel;
}

}  // namespace detail

inline ExtractedSnapshot extract_lsps(const dataset::SnapshotBatch& snapshot,
                                      const dataset::Ip2As& ip2as) {
  ExtractedSnapshot out;
  out.cycle_id = snapshot.cycle_id;
  out.sub_index = snapshot.sub_index;
  out.date = snapshot.date;
  detail::Census census;
  const dataset::TraceBatch& traces = snapshot.traces;
  for (std::size_t i = 0; i < traces.trace_count(); ++i) {
    detail::extract_from_trace(traces.view(i), ip2as, out, census);
  }
  for (const auto& [addr, labeled] : census) {
    ++(labeled ? out.stats.mpls_ips : out.stats.non_mpls_ips);
  }
  return out;
}

inline std::unordered_set<std::uint64_t> lsp_content_set(
    const ExtractedSnapshot& snapshot) {
  std::unordered_set<std::uint64_t> out;
  out.reserve(snapshot.observations.size());
  for (const LspObservation& obs : snapshot.observations) {
    out.insert(content_hash(obs.lsp));
  }
  return out;
}

inline FilteredCycle apply_filters(
    const ExtractedSnapshot& cycle,
    const std::vector<ExtractedSnapshot>& following,
    const FilterConfig& config) {
  FilteredCycle out;
  out.cycle_id = cycle.cycle_id;
  out.date = cycle.date;
  out.stats.observed = cycle.stats.lsps_observed;
  out.stats.complete = cycle.observations.size();

  // --- IntraAS: extraction marked multi-AS runs with asn == 0. -----------
  std::vector<LspObservation> kept;
  kept.reserve(cycle.observations.size());
  for (const LspObservation& obs : cycle.observations) {
    if (config.enable_intra_as && obs.lsp.asn == 0) continue;
    kept.push_back(obs);
  }
  out.stats.after_intra_as = kept.size();

  // --- TargetAS: destination must sit outside the tunnel's AS. -----------
  if (config.enable_target_as) {
    std::erase_if(kept, [](const LspObservation& obs) {
      return obs.dst_asn == obs.lsp.asn;
    });
  }
  out.stats.after_target_as = kept.size();

  // --- TransitDiversity: IOTP must serve >= 2 destination ASes. ----------
  if (config.enable_transit_diversity) {
    std::unordered_map<IotpKey, std::set<std::uint32_t>, IotpKeyHash>
        dst_sets;
    for (const LspObservation& obs : kept) {
      dst_sets[{obs.lsp.asn, obs.lsp.ingress, obs.lsp.egress}].insert(
          obs.dst_asn);
    }
    std::erase_if(kept, [&](const LspObservation& obs) {
      return dst_sets
                 .at({obs.lsp.asn, obs.lsp.ingress, obs.lsp.egress})
                 .size() < 2;
    });
  }
  out.stats.after_transit_diversity = kept.size();

  // --- Persistence: reappear within the next j snapshots of the month. ---
  if (config.enable_persistence) {
    std::unordered_set<std::uint64_t> persistent;
    const int j = std::min<int>(config.persistence_j,
                                static_cast<int>(following.size()));
    for (int s = 0; s < j; ++s) {
      const auto set = lsp_content_set(following[static_cast<std::size_t>(s)]);
      persistent.insert(set.begin(), set.end());
    }

    std::unordered_map<std::uint32_t, std::uint64_t> total_per_as;
    std::unordered_map<std::uint32_t, std::uint64_t> kept_per_as;
    for (const LspObservation& obs : kept) {
      ++total_per_as[obs.lsp.asn];
      if (persistent.contains(content_hash(obs.lsp))) {
        ++kept_per_as[obs.lsp.asn];
      }
    }
    for (const auto& [asn, total] : total_per_as) {
      const std::uint64_t still = kept_per_as[asn];
      const double surviving =
          static_cast<double>(still) / static_cast<double>(total);
      if (surviving <= 1.0 - config.dynamic_threshold) {
        out.dynamic_asns.insert(asn);
      }
    }
    std::erase_if(kept, [&](const LspObservation& obs) {
      if (out.dynamic_asns.contains(obs.lsp.asn)) return false;  // reinjected
      return !persistent.contains(content_hash(obs.lsp));
    });
  }
  out.stats.after_persistence = kept.size();

  out.observations = std::move(kept);
  return out;
}

inline std::vector<IotpRecord> group_iotps(
    const std::vector<LspObservation>& observations) {
  std::unordered_map<IotpKey, IotpRecord, IotpKeyHash> groups;
  for (const LspObservation& obs : observations) {
    const IotpKey key{obs.lsp.asn, obs.lsp.ingress, obs.lsp.egress};
    IotpRecord& rec = groups[key];
    rec.key = key;
    rec.dst_asns.push_back(obs.dst_asn);
    if (std::find(rec.variants.begin(), rec.variants.end(), obs.lsp) ==
        rec.variants.end()) {
      rec.variants.push_back(obs.lsp);
    }
  }
  std::vector<IotpRecord> out;
  out.reserve(groups.size());
  for (auto& [key, rec] : groups) {
    std::sort(rec.dst_asns.begin(), rec.dst_asns.end());
    rec.dst_asns.erase(
        std::unique(rec.dst_asns.begin(), rec.dst_asns.end()),
        rec.dst_asns.end());
    out.push_back(std::move(rec));
  }
  std::sort(out.begin(), out.end(), [](const IotpRecord& a,
                                       const IotpRecord& b) {
    return a.key < b.key;
  });
  return out;
}

inline std::vector<LspObservation> to_router_level(
    const std::vector<LspObservation>& observations,
    const AliasResolver& resolver) {
  std::vector<LspObservation> out;
  out.reserve(observations.size());
  for (const LspObservation& obs : observations) {
    LspObservation rewritten = obs;
    rewritten.lsp.ingress = resolver.canonical(obs.lsp.ingress);
    rewritten.lsp.egress = resolver.canonical(obs.lsp.egress);
    out.push_back(std::move(rewritten));
  }
  return out;
}

// --- bridges between the two representations ------------------------------

inline void append(LspTable& table, const LspObservation& obs) {
  LspRow head;
  head.asn = obs.lsp.asn;
  head.ingress = obs.lsp.ingress;
  head.egress = obs.lsp.egress;
  head.egress_labeled = obs.lsp.egress_labeled;
  head.dst_asn = obs.dst_asn;
  head.monitor_id = obs.monitor_id;
  table.begin_row(head);
  for (const LsrHop& hop : obs.lsp.lsrs) {
    table.add_lsr(hop.addr);
    for (const std::uint32_t label : hop.labels) table.add_label(label);
  }
  table.end_row();
}

inline LspTable table_of(const std::vector<LspObservation>& observations) {
  LspTable table;
  for (const LspObservation& obs : observations) append(table, obs);
  return table;
}

inline LspObservation observation_of(const LspTable& table, std::size_t i) {
  return LspObservation{table.lsp(i), table.row(i).dst_asn,
                        table.row(i).monitor_id};
}

inline std::vector<LspObservation> observations_of(const LspTable& table) {
  std::vector<LspObservation> out;
  out.reserve(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    out.push_back(observation_of(table, i));
  }
  return out;
}

// The production snapshot holding the same observations and counters.
inline lpr::ExtractedSnapshot production(const ExtractedSnapshot& snapshot) {
  lpr::ExtractedSnapshot out;
  out.cycle_id = snapshot.cycle_id;
  out.sub_index = snapshot.sub_index;
  out.date = snapshot.date;
  out.observations = table_of(snapshot.observations);
  out.stats = snapshot.stats;
  return out;
}

// --- parity checks -------------------------------------------------------

inline void expect_same_stats(const ExtractStats& g, const ExtractStats& w) {
  EXPECT_EQ(g.traces_total, w.traces_total);
  EXPECT_EQ(g.traces_with_explicit_tunnel, w.traces_with_explicit_tunnel);
  EXPECT_EQ(g.lsps_observed, w.lsps_observed);
  EXPECT_EQ(g.lsps_incomplete, w.lsps_incomplete);
  EXPECT_EQ(g.mpls_ips, w.mpls_ips);
  EXPECT_EQ(g.non_mpls_ips, w.non_mpls_ips);
}

// Row by row: the LSP, egress_labeled, destination AS, monitor, and the
// stored hash against the oracle's chain over its LSP.
inline void expect_same_rows(const LspTable& got,
                             const std::vector<LspObservation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const LspRow& row = got.row(i);
    const LspObservation& obs = want[i];
    ASSERT_TRUE(got.lsp(i) == obs.lsp) << "row " << i;
    EXPECT_EQ(row.egress_labeled, obs.lsp.egress_labeled) << "row " << i;
    EXPECT_EQ(row.dst_asn, obs.dst_asn) << "row " << i;
    EXPECT_EQ(row.monitor_id, obs.monitor_id) << "row " << i;
    ASSERT_EQ(row.content_hash, content_hash(obs.lsp)) << "row " << i;
  }
}

inline void expect_same_extraction(const lpr::ExtractedSnapshot& got,
                                   const ExtractedSnapshot& want) {
  EXPECT_EQ(got.cycle_id, want.cycle_id);
  EXPECT_EQ(got.sub_index, want.sub_index);
  EXPECT_EQ(got.date, want.date);
  expect_same_stats(got.stats, want.stats);
  expect_same_rows(got.observations, want.observations);
}

inline void expect_same_filter_stats(const FilterStats& g,
                                     const FilterStats& w) {
  EXPECT_EQ(g.observed, w.observed);
  EXPECT_EQ(g.complete, w.complete);
  EXPECT_EQ(g.after_intra_as, w.after_intra_as);
  EXPECT_EQ(g.after_target_as, w.after_target_as);
  EXPECT_EQ(g.after_transit_diversity, w.after_transit_diversity);
  EXPECT_EQ(g.after_persistence, w.after_persistence);
}

inline void expect_same_filtered(const lpr::FilteredCycle& got,
                                 const FilteredCycle& want) {
  EXPECT_EQ(got.cycle_id, want.cycle_id);
  EXPECT_EQ(got.date, want.date);
  expect_same_filter_stats(got.stats, want.stats);
  EXPECT_EQ(got.dynamic_asns, want.dynamic_asns);
  expect_same_rows(got.observations, want.observations);
}

// Every record: key, variants in order (content and egress_labeled),
// destination ASes, and — once classified — class and metrics.
inline void expect_same_records(const std::vector<IotpRecord>& got,
                                const std::vector<IotpRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    const IotpRecord& g = got[r];
    const IotpRecord& w = want[r];
    ASSERT_EQ(g.key, w.key) << "record " << r;
    ASSERT_EQ(g.variants.size(), w.variants.size()) << "record " << r;
    for (std::size_t v = 0; v < g.variants.size(); ++v) {
      ASSERT_TRUE(g.variants[v] == w.variants[v])
          << "record " << r << " variant " << v;
      EXPECT_EQ(g.variants[v].egress_labeled, w.variants[v].egress_labeled);
    }
    EXPECT_EQ(g.dst_asns, w.dst_asns) << "record " << r;
    EXPECT_EQ(g.tunnel_class, w.tunnel_class) << "record " << r;
    EXPECT_EQ(g.mono_fec_kind, w.mono_fec_kind) << "record " << r;
    EXPECT_EQ(g.length, w.length) << "record " << r;
    EXPECT_EQ(g.width, w.width) << "record " << r;
    EXPECT_EQ(g.symmetry, w.symmetry) << "record " << r;
  }
}

// Filters and grouping on both paths over one month of extractions (cycle
// snapshot first), classified; every intermediate result compared.
inline void expect_same_pipeline(
    const std::vector<lpr::ExtractedSnapshot>& got_month,
    const std::vector<ExtractedSnapshot>& want_month,
    const FilterConfig& config = {}) {
  ASSERT_EQ(got_month.size(), want_month.size());
  ASSERT_FALSE(got_month.empty());
  for (std::size_t s = 0; s < got_month.size(); ++s) {
    expect_same_extraction(got_month[s], want_month[s]);
  }
  const std::vector<ExtractedSnapshot> want_following(want_month.begin() + 1,
                                                      want_month.end());
  const lpr::FilteredCycle got = lpr::apply_filters(
      got_month.front(), {got_month.begin() + 1, got_month.end()}, config);
  const FilteredCycle want =
      apply_filters(want_month.front(), want_following, config);
  expect_same_filtered(got, want);

  std::vector<IotpRecord> got_records = lpr::group_iotps(got.observations);
  std::vector<IotpRecord> want_records = group_iotps(want.observations);
  expect_same_records(got_records, want_records);
  const ClassCounts got_counts = classify_all(got_records);
  const ClassCounts want_counts = classify_all(want_records);
  expect_same_records(got_records, want_records);
  EXPECT_EQ(got_counts.mono_lsp, want_counts.mono_lsp);
  EXPECT_EQ(got_counts.multi_fec, want_counts.multi_fec);
  EXPECT_EQ(got_counts.mono_fec, want_counts.mono_fec);
  EXPECT_EQ(got_counts.unclassified, want_counts.unclassified);
  EXPECT_EQ(got_counts.parallel_links, want_counts.parallel_links);
  EXPECT_EQ(got_counts.routers_disjoint, want_counts.routers_disjoint);
}

}  // namespace mum::lpr::reference
