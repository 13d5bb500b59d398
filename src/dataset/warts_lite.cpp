#include "dataset/warts_lite.h"

#include <sstream>

namespace mum::dataset {

void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

std::optional<std::uint64_t> get_varint(std::string_view in,
                                        std::size_t& pos) {
  std::uint64_t value = 0;
  int shift = 0;
  while (pos < in.size()) {
    const auto byte = static_cast<unsigned char>(in[pos++]);
    if (shift >= 64 || (shift == 63 && (byte & 0x7e))) return std::nullopt;
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return std::nullopt;  // truncated
}

std::string to_text(const TraceView& trace) {
  std::ostringstream os;
  os << "trace monitor=" << trace.monitor_id() << " src=" << trace.src()
     << " dst=" << trace.dst() << " reached=" << (trace.reached() ? 1 : 0)
     << '\n';
  for (std::size_t k = 0; k < trace.hop_count(); ++k) {
    const HopView hop = trace.hop(k);
    os << "  " << k + 1 << "  ";
    if (hop.anonymous()) {
      os << "*";
    } else {
      os << hop.addr() << "  " << hop.rtt_ms() << " ms";
      if (hop.asn() != 0) os << "  [AS" << hop.asn() << "]";
      if (hop.has_labels()) os << "  " << hop.label_stack();
    }
    os << '\n';
  }
  return os.str();
}

std::string to_text(const SnapshotBatch& snapshot) {
  std::ostringstream os;
  os << "snapshot cycle=" << snapshot.cycle_id
     << " sub=" << snapshot.sub_index << " date=" << snapshot.date
     << " traces=" << snapshot.trace_count() << "\n\n";
  for (std::size_t i = 0; i < snapshot.trace_count(); ++i) {
    os << to_text(snapshot.traces.view(i)) << '\n';
  }
  return os.str();
}

}  // namespace mum::dataset
