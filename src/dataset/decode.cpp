#include "dataset/decode.h"

#include "util/json.h"

namespace mum::dataset {

const char* to_cstring(FaultClass fault) noexcept {
  switch (fault) {
    case FaultClass::kBadMagic: return "bad_magic";
    case FaultClass::kBadVersion: return "bad_version";
    case FaultClass::kTruncatedHeader: return "truncated_header";
    case FaultClass::kOversizedClaim: return "oversized_claim";
    case FaultClass::kTrailingBytes: return "trailing_bytes";
    case FaultClass::kBadSectionTable: return "bad_section_table";
    case FaultClass::kChecksumMismatch: return "checksum_mismatch";
    case FaultClass::kBadOffsetIndex: return "bad_offset_index";
  }
  return "unknown";
}

std::uint64_t DecodeDiagnostics::faults_total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  return total;
}

void DecodeDiagnostics::add_fault(FaultClass fault, std::size_t offset,
                                  std::uint64_t record, std::string detail) {
  ++counts[static_cast<std::size_t>(fault)];
  if (samples.size() < kMaxSamples) {
    samples.push_back(DecodeFault{fault, offset, record, std::move(detail)});
  }
}

DecodeDiagnostics& DecodeDiagnostics::merge(const DecodeDiagnostics& other) {
  for (std::size_t i = 0; i < kFaultClassCount; ++i) {
    counts[i] += other.counts[i];
  }
  records_decoded += other.records_decoded;
  records_skipped += other.records_skipped;
  for (const DecodeFault& fault : other.samples) {
    if (samples.size() >= kMaxSamples) break;
    samples.push_back(fault);
  }
  return *this;
}

void DecodeDiagnostics::write_json(util::JsonWriter& json) const {
  json.begin_object();
  json.field("records_decoded", records_decoded);
  json.field("records_skipped", records_skipped);
  json.key("faults");
  json.begin_object();
  for (std::size_t i = 0; i < kFaultClassCount; ++i) {
    if (counts[i] == 0) continue;  // sparse: clean files stay terse
    json.field(to_cstring(static_cast<FaultClass>(i)), counts[i]);
  }
  json.end_object();
  json.key("samples");
  json.begin_array();
  for (const DecodeFault& fault : samples) {
    json.begin_object();
    json.field("fault", to_cstring(fault.fault));
    json.field("offset", static_cast<std::uint64_t>(fault.offset));
    json.field("record", fault.record);
    json.field("detail", fault.detail);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace mum::dataset
