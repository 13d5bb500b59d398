// Per-router MPLS label allocation.
//
// Label ranges are vendor-specific (the paper leans on this: Sec. 2.2 notes
// ranges come from manufacturer documentation, and Sec. 4.5 / Fig. 17 shows
// Juniper-style RSVP-TE labels sweeping a 300k-800k range and wrapping).
// Each router owns one pool; LDP and RSVP-TE both draw from it, which is why
// a label value is only locally meaningful — the core assumption behind LPR's
// "same IP + different labels => different FECs" inference.
#pragma once

#include <cstdint>

#include "net/lse.h"
#include "topo/topology.h"

namespace mum::mpls {

struct LabelRange {
  std::uint32_t first = net::kLabelFirstUnreserved;
  std::uint32_t last = net::kLabelMax;
};

// Default dynamic-label ranges per vendor. The Juniper range matches the
// observable window of Fig. 17 (labels cycling between ~300000 and ~800000);
// the Cisco range matches the classic 16..100000 default.
LabelRange default_range(topo::Vendor vendor) noexcept;

class LabelPool {
 public:
  LabelPool() = default;
  explicit LabelPool(LabelRange range) : range_(range), next_(range.first) {}
  explicit LabelPool(topo::Vendor vendor) : LabelPool(default_range(vendor)) {}
  // Router pools in a real network are desynchronized (allocation history,
  // reboots): seed an arbitrary starting point inside the range. Without
  // this, every router would hand out the same value for the k-th FEC and
  // label values would collide across routers systematically.
  LabelPool(topo::Vendor vendor, std::uint64_t seed);

  // Allocate the next label; wraps to the start of the range when exhausted
  // (this wrap is what produces the sawtooth of Fig. 17).
  std::uint32_t allocate() noexcept;

  // Snapshot of the allocation counter. Cycle evolution rewinds pools to a
  // saved state instead of reconstructing them, so a re-signalled control
  // plane draws exactly the label sequence a from-scratch build would.
  struct State {
    std::uint32_t next = net::kLabelFirstUnreserved;
    std::uint64_t count = 0;
  };
  State state() const noexcept { return State{next_, count_}; }
  void restore(const State& s) noexcept {
    next_ = s.next;
    count_ = s.count;
  }

  // Advance the counter as if `n` labels had been handed out and discarded:
  // allocation-history drift between LSP re-signalling epochs (the paper's
  // Fig. 17 label motion), in O(1) regardless of n.
  void burn(std::uint64_t n) noexcept;

  // Position in the range of the label the next allocate() returns.
  std::uint32_t offset() const noexcept {
    return next_ > range_.last || next_ < range_.first ? 0
                                                       : next_ - range_.first;
  }

  // Number of labels handed out so far.
  std::uint64_t allocated() const noexcept { return count_; }
  const LabelRange& range() const noexcept { return range_; }

 private:
  LabelRange range_{};
  std::uint32_t next_ = net::kLabelFirstUnreserved;
  std::uint64_t count_ = 0;
};

}  // namespace mum::mpls
