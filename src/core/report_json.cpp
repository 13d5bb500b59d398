// JSON half of the Report interface — the machine-readable counterpart of
// the text tables, for external plotting of the paper's figures.
#include "core/report.h"

#include "core/metrics.h"
#include "util/json.h"

namespace mum::lpr {

namespace {

void write_counts(util::JsonWriter& json, const ClassCounts& counts) {
  const std::uint64_t total = counts.total();
  json.begin_object();
  json.field("total", total);
  json.field("mono_lsp", counts.mono_lsp);
  json.field("multi_fec", counts.multi_fec);
  json.field("mono_fec", counts.mono_fec);
  json.field("parallel_links", counts.parallel_links);
  json.field("routers_disjoint", counts.routers_disjoint);
  json.field("unclassified", counts.unclassified);
  // Class shares, guarded: an empty cycle emits explicit zeros, never NaN.
  json.key("shares");
  json.begin_object();
  json.field("mono_lsp", safe_ratio(counts.mono_lsp, total));
  json.field("multi_fec", safe_ratio(counts.multi_fec, total));
  json.field("mono_fec", safe_ratio(counts.mono_fec, total));
  json.field("unclassified", safe_ratio(counts.unclassified, total));
  json.end_object();
  json.end_object();
}

void write_per_as(util::JsonWriter& json, const CycleReport& report) {
  json.begin_array();
  for (const auto& [asn, counts] : report.per_as) {
    json.begin_object();
    json.field("asn", asn);
    const auto dyn = report.dynamic_as.find(asn);
    json.field("dynamic", dyn != report.dynamic_as.end() && dyn->second);
    json.key("classes");
    write_counts(json, counts);
    json.end_object();
  }
  json.end_array();
}

}  // namespace

std::string CycleReport::to_json(bool include_iotps) const {
  util::JsonWriter json;
  json.begin_object();
  json.field("cycle", cycle_id + 1);  // 1-based, as the paper counts
  json.field("date", date);

  json.key("extract");
  json.begin_object();
  json.field("traces", extract_stats.traces_total);
  json.field("traces_with_tunnel",
             extract_stats.traces_with_explicit_tunnel);
  json.field("mpls_ips", extract_stats.mpls_ips);
  json.field("non_mpls_ips", extract_stats.non_mpls_ips);
  json.end_object();

  json.key("filters");
  json.begin_object();
  const auto& f = filter_stats;
  json.field("observed", f.observed);
  json.field("complete", f.complete);
  json.field("after_intra_as", f.after_intra_as);
  json.field("after_target_as", f.after_target_as);
  json.field("after_transit_diversity", f.after_transit_diversity);
  json.field("after_persistence", f.after_persistence);
  json.end_object();

  json.key("global");
  write_counts(json, global);
  json.key("per_as");
  write_per_as(json, *this);

  if (!decode.clean()) {
    json.key("decode");
    decode.write_json(json);
  }

  if (include_iotps) {
    json.key("iotps");
    json.begin_array();
    for (const IotpRecord& rec : iotps) {
      json.begin_object();
      json.field("asn", rec.key.asn);
      json.field("ingress", rec.key.ingress.to_string());
      json.field("egress", rec.key.egress.to_string());
      json.field("class", to_cstring(rec.tunnel_class));
      if (rec.mono_fec_kind != MonoFecKind::kNotApplicable) {
        json.field("mono_fec_kind", to_cstring(rec.mono_fec_kind));
      }
      json.field("length", rec.length);
      json.field("width", rec.width);
      json.field("symmetry", rec.symmetry);
      json.field("dst_asns", static_cast<std::uint64_t>(
                                 rec.dst_asns.size()));
      json.end_object();
    }
    json.end_array();
  }

  json.end_object();
  return json.str();
}

std::string LongitudinalReport::to_json() const {
  util::JsonWriter json;
  json.begin_array();
  for (const CycleReport& cycle : cycles) {
    json.begin_object();
    json.field("cycle", cycle.cycle_id + 1);
    json.field("date", cycle.date);
    json.key("global");
    write_counts(json, cycle.global);
    json.key("per_as");
    write_per_as(json, cycle);
    json.end_object();
  }
  json.end_array();
  return json.str();
}

}  // namespace mum::lpr
