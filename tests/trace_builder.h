// Test-only builder for hand-written traces.
//
// The library keeps traces only as columnar dataset::TraceBatch storage;
// tests that spell out a few hops by hand write them as the plain structs
// below and turn them into a batch with append()/snapshot_of(). spec_of()
// reads a batch trace back into the same struct so expectations can compare
// whole traces.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dataset/trace_batch.h"
#include "net/ipv4.h"
#include "net/lse.h"

namespace mum::test {

struct HopSpec {
  net::Ipv4Addr addr;  // kAnonymousAddr ('*') unless set
  double rtt_ms = 0.0;
  net::LabelStack labels;
  std::uint32_t asn = 0;

  bool anonymous() const noexcept { return addr == net::kAnonymousAddr; }
  bool has_labels() const noexcept { return !labels.empty(); }
};

struct TraceSpec {
  std::uint32_t monitor_id = 0;
  net::Ipv4Addr src;
  net::Ipv4Addr dst;
  std::uint32_t dst_asn = 0;
  bool reached = false;
  std::vector<HopSpec> hops;
};

inline void append(dataset::TraceBatch& batch, const TraceSpec& trace) {
  batch.begin_trace(trace.monitor_id, trace.src, trace.dst, trace.dst_asn);
  for (const HopSpec& hop : trace.hops) {
    batch.add_hop(hop.addr, hop.rtt_ms, hop.asn);
    for (const auto& lse : hop.labels.entries()) batch.add_label(lse.encode());
  }
  batch.end_trace(trace.reached);
}

inline dataset::SnapshotBatch snapshot_of(
    const std::vector<TraceSpec>& traces, std::uint32_t cycle_id = 0,
    std::uint32_t sub_index = 0, std::string date = "") {
  dataset::SnapshotBatch snap;
  snap.cycle_id = cycle_id;
  snap.sub_index = sub_index;
  snap.date = std::move(date);
  for (const TraceSpec& trace : traces) append(snap.traces, trace);
  return snap;
}

inline TraceSpec spec_of(const dataset::TraceView& view) {
  TraceSpec trace;
  trace.monitor_id = view.monitor_id();
  trace.src = view.src();
  trace.dst = view.dst();
  trace.dst_asn = view.dst_asn();
  trace.reached = view.reached();
  for (std::size_t k = 0; k < view.hop_count(); ++k) {
    const dataset::HopView hop = view.hop(k);
    trace.hops.push_back(
        HopSpec{hop.addr(), hop.rtt_ms(), hop.label_stack(), hop.asn()});
  }
  return trace;
}

inline std::vector<TraceSpec> specs_of(const dataset::TraceBatch& batch) {
  std::vector<TraceSpec> out;
  for (std::size_t i = 0; i < batch.trace_count(); ++i) {
    out.push_back(spec_of(batch.view(i)));
  }
  return out;
}

}  // namespace mum::test
