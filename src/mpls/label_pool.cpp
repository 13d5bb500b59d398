#include "mpls/label_pool.h"

namespace mum::mpls {

LabelRange default_range(topo::Vendor vendor) noexcept {
  switch (vendor) {
    case topo::Vendor::kJuniper:
      // Matches the observable label window of the paper's Fig. 17.
      return LabelRange{300000, 800000};
    case topo::Vendor::kCisco:
      return LabelRange{16, 100000};
  }
  return LabelRange{};
}

LabelPool::LabelPool(topo::Vendor vendor, std::uint64_t seed)
    : LabelPool(default_range(vendor)) {
  const std::uint64_t span = range_.last - range_.first + 1;
  // Offset into the first half so short-lived pools still look "low".
  next_ = range_.first +
          static_cast<std::uint32_t>((seed * 0x9e3779b97f4a7c15ull >> 33) %
                                     (span / 2 + 1));
}

std::uint32_t LabelPool::allocate() noexcept {
  if (next_ > range_.last || next_ < range_.first) next_ = range_.first;
  ++count_;
  return next_++;
}

void LabelPool::burn(std::uint64_t n) noexcept {
  if (n == 0) return;
  // Exactly n allocate() calls, in O(1): the last value emitted is
  // first + (offset() + n - 1) % width, and next_ is left one past it
  // (possibly un-normalized past `last`, just as allocate() leaves it).
  const std::uint64_t width =
      std::uint64_t{range_.last} - range_.first + 1;
  next_ = range_.first +
          static_cast<std::uint32_t>((offset() + n - 1) % width) + 1;
  count_ += n;
}

}  // namespace mum::mpls
