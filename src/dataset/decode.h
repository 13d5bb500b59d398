// Decode fault taxonomy and diagnostics for tolerant dataset ingest.
//
// The pack decoder (dataset/pack.h) runs in one of two modes:
//
//   * strict   — the first malformed field aborts the decode (nullopt), with
//     the fault class and exact byte offset reported in DecodeDiagnostics.
//     This is the right mode for trusted archives where corruption means a
//     storage problem the operator must see.
//   * tolerant — malformed records are skipped and counted; everything that
//     does decode is returned. Arbitrary bytes never throw and never invoke
//     UB; resource claims (section sizes, offsets) are validated against the
//     bytes actually present before any allocation. This is the mode for
//     real-world messy captures, mirroring how the paper's pipeline survives
//     partial Archipelago data.
//
// DecodeDiagnostics is the structured record of what tolerant mode skipped:
// per-fault-class counters plus the first few fault samples (class, byte
// offset, record index, detail). It flows into lpr::CycleReport and its JSON
// form so a tolerant run documents exactly what it ignored.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace mum::util {
class JsonWriter;
}

namespace mum::dataset {

enum class FaultClass : std::uint8_t {
  kBadMagic = 0,      // not a warts-lite pack at all
  kBadVersion,        // unknown format version
  kTruncatedHeader,   // header or section table ends mid-field
  kOversizedClaim,    // a count/size field claims more than the bytes hold
  kTrailingBytes,     // the file carries bytes past its declared size
  kBadSectionTable,   // duplicate/misaligned/overlapping section entry
  kChecksumMismatch,  // stored section checksum does not match the bytes
  kBadOffsetIndex,    // an offset column is non-monotonic or out of range
};
inline constexpr std::size_t kFaultClassCount = 8;

const char* to_cstring(FaultClass fault) noexcept;

struct DecodeFault {
  FaultClass fault = FaultClass::kBadMagic;
  std::size_t offset = 0;    // byte offset of the field that failed
  std::uint64_t record = 0;  // trace record index (0 for header faults)
  std::string detail;
};

struct DecodeDiagnostics {
  // How many fault samples are retained verbatim (counters are unbounded).
  static constexpr std::size_t kMaxSamples = 8;

  std::array<std::uint64_t, kFaultClassCount> counts{};
  std::uint64_t records_decoded = 0;
  std::uint64_t records_skipped = 0;
  std::vector<DecodeFault> samples;

  std::uint64_t count(FaultClass fault) const noexcept {
    return counts[static_cast<std::size_t>(fault)];
  }
  std::uint64_t faults_total() const noexcept;
  bool clean() const noexcept {
    return faults_total() == 0 && records_skipped == 0;
  }

  // Bump the class counter and retain the sample if under kMaxSamples.
  void add_fault(FaultClass fault, std::size_t offset, std::uint64_t record,
                 std::string detail);

  // Deterministic accumulation across files (counters sum; samples keep the
  // first kMaxSamples in merge order).
  DecodeDiagnostics& merge(const DecodeDiagnostics& other);

  // JSON object: { "records_decoded": n, "records_skipped": n,
  //   "faults": {class: count, ...}, "samples": [...] }.
  void write_json(util::JsonWriter& json) const;
};

struct DecodeOptions {
  bool tolerant = false;
};

}  // namespace mum::dataset
