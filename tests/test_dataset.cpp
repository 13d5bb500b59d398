#include <gtest/gtest.h>

#include <algorithm>

#include "dataset/ip2as.h"
#include "dataset/pack.h"
#include "dataset/snapshot_source.h"
#include "dataset/trace_batch.h"
#include "dataset/warts_lite.h"
#include "trace_builder.h"
#include "util/rng.h"

namespace mum::dataset {
namespace {

using test::HopSpec;
using test::TraceSpec;

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

HopSpec labeled_hop(std::uint32_t addr, std::uint32_t label) {
  HopSpec hop;
  hop.addr = ip(addr);
  hop.rtt_ms = 1.5;
  hop.labels.push(label, 0, 1);
  return hop;
}

HopSpec plain_hop(std::uint32_t addr) {
  HopSpec hop;
  hop.addr = ip(addr);
  hop.rtt_ms = 1.0;
  return hop;
}

// --- Trace basics -------------------------------------------------------

TEST(Trace, AnonymousDetection) {
  TraceSpec t;
  t.hops.push_back(HopSpec{});  // '*'
  t.hops.push_back(plain_hop(1));
  TraceBatch batch;
  test::append(batch, t);
  EXPECT_TRUE(batch.view(0).hop(0).anonymous());
  EXPECT_FALSE(batch.view(0).hop(1).anonymous());
}

TEST(Trace, ExplicitTunnelDetection) {
  TraceSpec t;
  t.hops.push_back(plain_hop(1));
  TraceBatch batch;
  test::append(batch, t);
  EXPECT_FALSE(batch.view(0).crosses_explicit_tunnel());
  t.hops.push_back(labeled_hop(2, 1000));
  test::append(batch, t);
  EXPECT_TRUE(batch.view(1).crosses_explicit_tunnel());
  // Labels on another trace's hops never leak into this one's range.
  test::append(batch, TraceSpec{});
  EXPECT_FALSE(batch.view(2).crosses_explicit_tunnel());
}

// --- Ip2As --------------------------------------------------------------

TEST(Ip2As, LongestPrefixMatch) {
  Ip2As ip2as;
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x10000000), 8), 100);
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x10010000), 16), 200);
  EXPECT_EQ(ip2as.lookup(ip(0x10010203)), 200u);
  EXPECT_EQ(ip2as.lookup(ip(0x10FF0000)), 100u);
  EXPECT_EQ(ip2as.lookup(ip(0x20000000)), kUnknownAsn);
}

TEST(Ip2As, AnnotateFillsHopAndDestAsns) {
  Ip2As ip2as;
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x0A000000), 8), 65001);
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x0B000000), 8), 65002);

  TraceSpec t;
  t.dst = ip(0x0B000001);
  t.hops.push_back(plain_hop(0x0A000001));
  t.hops.push_back(HopSpec{});  // anonymous
  t.hops.push_back(plain_hop(0x0C000001));  // unmapped
  TraceBatch batch;
  test::append(batch, t);
  ip2as.annotate(batch);

  const TraceView v = batch.view(0);
  EXPECT_EQ(v.dst_asn(), 65002u);
  EXPECT_EQ(v.hop(0).asn(), 65001u);
  EXPECT_EQ(v.hop(1).asn(), kUnknownAsn);
  EXPECT_EQ(v.hop(2).asn(), kUnknownAsn);
}

TEST(Ip2As, AnnotateVector) {
  Ip2As ip2as;
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x0A000000), 8), 65001);
  TraceSpec t;
  t.dst = ip(0x0A000005);
  TraceBatch batch;
  for (int i = 0; i < 3; ++i) test::append(batch, t);
  ip2as.annotate(batch);
  for (std::size_t i = 0; i < batch.trace_count(); ++i) {
    EXPECT_EQ(batch.view(i).dst_asn(), 65001u);
  }
}

// --- varints ------------------------------------------------------------

TEST(Varint, RoundTripBoundaries) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
        0xFFFFFFFFull, ~0ull}) {
    std::string buf;
    put_varint(buf, v);
    std::size_t pos = 0;
    const auto back = get_varint(buf, pos);
    ASSERT_TRUE(back.has_value()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, TruncatedFails) {
  std::string buf;
  put_varint(buf, 300);  // two bytes
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_FALSE(get_varint(buf, pos).has_value());
}

TEST(Varint, SmallValuesAreOneByte) {
  std::string buf;
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
}

// --- warts-lite pack ----------------------------------------------------
// Round trips and the strict/tolerant decode contract, through the one
// decode entry point (decode_snapshot) over v3 pack bytes. Section-level
// pack coverage is in test_pack.cpp.

std::vector<TraceSpec> sample_traces() {
  TraceSpec t;
  t.monitor_id = 7;
  t.src = ip(0x01020304);
  t.dst = ip(0x05060708);
  t.reached = true;
  t.hops.push_back(plain_hop(0x0A000001));
  t.hops.push_back(HopSpec{});  // anonymous hop
  HopSpec multi = labeled_hop(0x0A000002, 300123);
  multi.labels.push(17, 2, 1);  // two-entry stack
  t.hops.push_back(multi);
  TraceSpec unreached;
  unreached.monitor_id = 8;
  unreached.src = ip(1);
  unreached.dst = ip(2);
  unreached.reached = false;
  return {t, unreached};
}

SnapshotBatch sample_snapshot() {
  return test::snapshot_of(sample_traces(), 42, 1, "2014-12");
}

// Every column the pack carries (annotation columns are not persisted).
void expect_same_columns(const SnapshotBatch& a, const SnapshotBatch& b) {
  const auto eq = [](auto x, auto y) { return std::ranges::equal(x, y); };
  EXPECT_EQ(a.date, b.date);
  EXPECT_TRUE(eq(a.traces.monitor_col(), b.traces.monitor_col()));
  EXPECT_TRUE(eq(a.traces.src_col(), b.traces.src_col()));
  EXPECT_TRUE(eq(a.traces.dst_col(), b.traces.dst_col()));
  EXPECT_TRUE(eq(a.traces.reached_col(), b.traces.reached_col()));
  EXPECT_TRUE(eq(a.traces.hop_off_col(), b.traces.hop_off_col()));
  EXPECT_TRUE(eq(a.traces.hop_addr_col(), b.traces.hop_addr_col()));
  EXPECT_TRUE(eq(a.traces.hop_rtt_col(), b.traces.hop_rtt_col()));
  EXPECT_TRUE(eq(a.traces.lse_off_col(), b.traces.lse_off_col()));
  EXPECT_TRUE(eq(a.traces.lse_pool_col(), b.traces.lse_pool_col()));
}

// Little-endian field surgery on serialized packs.
void write_le(std::string& bytes, std::size_t at, std::uint64_t v,
              std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

std::size_t pack_entry_at(PackSection s) {
  return kPackHeaderBytes +
         static_cast<std::size_t>(s) * kPackSectionEntryBytes;
}

TEST(WartsLite, RoundTripPreservesEverything) {
  const SnapshotBatch snap = sample_snapshot();
  const std::vector<TraceSpec> want = sample_traces();
  const auto back = decode_snapshot(serialize_pack(snap));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cycle_id, snap.cycle_id);
  EXPECT_EQ(back->sub_index, snap.sub_index);
  EXPECT_EQ(back->date, snap.date);
  ASSERT_EQ(back->trace_count(), snap.trace_count());
  const TraceSpec t0 = test::spec_of(back->traces.view(0));
  EXPECT_EQ(t0.monitor_id, 7u);
  EXPECT_EQ(t0.src, want[0].src);
  EXPECT_EQ(t0.dst, want[0].dst);
  EXPECT_TRUE(t0.reached);
  ASSERT_EQ(t0.hops.size(), 3u);
  EXPECT_TRUE(t0.hops[1].anonymous());
  EXPECT_EQ(t0.hops[2].labels, want[0].hops[2].labels);
  EXPECT_NEAR(t0.hops[0].rtt_ms, 1.0, 1e-3);
  EXPECT_FALSE(back->traces.view(1).reached());
}

TEST(WartsLite, RejectsBadMagic) {
  std::string bytes = serialize_pack(sample_snapshot());
  bytes[0] = 'X';
  EXPECT_FALSE(decode_snapshot(bytes).has_value());
}

TEST(WartsLite, RejectsBadVersion) {
  std::string bytes = serialize_pack(sample_snapshot());
  bytes[4] = 99;
  EXPECT_FALSE(decode_snapshot(bytes).has_value());
}

TEST(WartsLite, RejectsTruncation) {
  const std::string bytes = serialize_pack(sample_snapshot());
  // Every strict prefix must fail cleanly, never crash.
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    EXPECT_FALSE(decode_snapshot(bytes.substr(0, cut)).has_value());
  }
}

TEST(WartsLite, EmptySnapshotRoundTrip) {
  const auto back = decode_snapshot(serialize_pack(SnapshotBatch{}));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->traces.empty());
}

TEST(WartsLite, AnonymousOnlyTraceRoundTrip) {
  TraceSpec t;
  t.monitor_id = 3;
  t.src = ip(1);
  t.dst = ip(2);
  t.reached = false;
  t.hops.assign(5, HopSpec{});  // every hop anonymous
  const SnapshotBatch snap = test::snapshot_of({t}, 9, 0, "2013-01");

  const auto back = decode_snapshot(serialize_pack(snap));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->trace_count(), 1u);
  const TraceView v = back->traces.view(0);
  ASSERT_EQ(v.hop_count(), 5u);
  for (std::size_t k = 0; k < v.hop_count(); ++k) {
    EXPECT_TRUE(v.hop(k).anonymous());
    EXPECT_FALSE(v.hop(k).has_labels());
  }
}

TEST(WartsLite, MaxDepthLabelStackRoundTrip) {
  // Quoted stacks deeper than anything the generator emits must still
  // round-trip exactly (the paper's data shows stacks up to ~6; go further).
  TraceSpec t;
  t.src = ip(1);
  t.dst = ip(2);
  HopSpec hop = plain_hop(0x0A000001);
  for (std::uint32_t i = 0; i < 16; ++i) {
    hop.labels.push(net::kLabelFirstUnreserved + i,
                    static_cast<std::uint8_t>(i % 8),
                    static_cast<std::uint8_t>(255 - i));
  }
  t.hops.push_back(hop);
  const SnapshotBatch snap = test::snapshot_of({t}, 0, 0, "2015-06");

  const auto back = decode_snapshot(serialize_pack(snap));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->traces.view(0).hop_count(), 1u);
  const net::LabelStack quoted = back->traces.view(0).hop(0).label_stack();
  ASSERT_EQ(quoted.depth(), 16u);
  EXPECT_EQ(quoted, hop.labels);
  EXPECT_TRUE(quoted.entries().back().bottom_of_stack());
}

// --- strict/tolerant decode edge cases ----------------------------------

TEST(WartsLite, StrictReportsFaultClassAndOffset) {
  const std::string bytes = serialize_pack(sample_snapshot());
  const DecodeOptions strict;

  {
    std::string bad = bytes;
    bad[0] = 'X';
    DecodeDiagnostics diag;
    EXPECT_FALSE(decode_snapshot(bad, strict, &diag).has_value());
    ASSERT_EQ(diag.samples.size(), 1u);
    EXPECT_EQ(diag.samples[0].fault, FaultClass::kBadMagic);
    EXPECT_EQ(diag.samples[0].offset, 0u);
  }
  {
    std::string bad = bytes;
    bad[4] = 99;
    DecodeDiagnostics diag;
    EXPECT_FALSE(decode_snapshot(bad, strict, &diag).has_value());
    ASSERT_EQ(diag.samples.size(), 1u);
    EXPECT_EQ(diag.samples[0].fault, FaultClass::kBadVersion);
    EXPECT_EQ(diag.samples[0].offset, 4u);
  }
  {
    // Cut mid-header: the offset points into the surviving bytes.
    DecodeDiagnostics diag;
    EXPECT_FALSE(
        decode_snapshot(bytes.substr(0, 6), strict, &diag).has_value());
    ASSERT_GE(diag.samples.size(), 1u);
    EXPECT_EQ(diag.samples[0].fault, FaultClass::kTruncatedHeader);
    EXPECT_GE(diag.samples[0].offset, 5u);
    EXPECT_LE(diag.samples[0].offset, 6u);
  }
}

TEST(WartsLite, OversizedClaimRejectedBeforeAllocation) {
  // A header claiming ~4e9 sections backed by a few hundred bytes must fail
  // the resource check, not walk (or allocate for) the claimed table.
  std::string bytes = serialize_pack(sample_snapshot());
  write_le(bytes, 16, 0xFFFFFFF0u, 4);  // section_count

  DecodeDiagnostics strict_diag;
  EXPECT_FALSE(
      decode_snapshot(bytes, DecodeOptions{}, &strict_diag).has_value());
  EXPECT_GE(strict_diag.count(FaultClass::kOversizedClaim), 1u);

  DecodeOptions tolerant;
  tolerant.tolerant = true;
  DecodeDiagnostics diag;
  const auto salvaged = decode_snapshot(bytes, tolerant, &diag);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_TRUE(salvaged->traces.empty());
  EXPECT_GE(diag.count(FaultClass::kOversizedClaim), 1u);
}

TEST(WartsLite, TolerantNeverFailsOnTruncatedCorpus) {
  const std::string bytes = serialize_pack(sample_snapshot());
  DecodeOptions tolerant;
  tolerant.tolerant = true;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    DecodeDiagnostics diag;
    const auto result =
        decode_snapshot(bytes.substr(0, cut), tolerant, &diag);
    if (cut < 5) {
      // Not even a container: magic/version can't be verified.
      EXPECT_FALSE(result.has_value()) << "cut=" << cut;
    } else {
      ASSERT_TRUE(result.has_value()) << "cut=" << cut;
      EXPECT_EQ(result->trace_count(), diag.records_decoded) << "cut=" << cut;
      if (cut < bytes.size()) {
        EXPECT_FALSE(diag.clean()) << "cut=" << cut;
      }
    }
  }
}

TEST(WartsLite, TolerantNeverFailsOnBitFlippedCorpus) {
  const SnapshotBatch snap = sample_snapshot();
  const std::string bytes = serialize_pack(snap);
  const auto original = decode_snapshot(bytes);
  ASSERT_TRUE(original.has_value());
  DecodeOptions tolerant;
  tolerant.tolerant = true;
  const DecodeOptions strict;
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[at] = static_cast<char>(
          static_cast<unsigned char>(flipped[at]) ^ (1u << bit));

      DecodeDiagnostics diag;
      const auto salvaged = decode_snapshot(flipped, tolerant, &diag);
      if (at < 5) {
        // Magic or version: no longer a recognizable container.
        EXPECT_FALSE(salvaged.has_value()) << "at=" << at << " bit=" << bit;
        EXPECT_GE(diag.faults_total(), 1u);
        continue;
      }
      ASSERT_TRUE(salvaged.has_value()) << "at=" << at << " bit=" << bit;
      EXPECT_EQ(salvaged->trace_count(), diag.records_decoded);

      // Strict mode on the same bytes either stops with a located fault or
      // returns exactly the original columns: the per-lane section
      // checksums catch every single-byte change to a payload, so only the
      // unchecked header fields (cycle_id, sub_index, zero padding) and the
      // inter-section padding may differ undetected.
      DecodeDiagnostics strict_diag;
      const auto accepted = decode_snapshot(flipped, strict, &strict_diag);
      if (!accepted.has_value()) {
        ASSERT_GE(strict_diag.samples.size(), 1u);
        EXPECT_LE(strict_diag.samples[0].offset, flipped.size());
      } else {
        SCOPED_TRACE("at=" + std::to_string(at) +
                     " bit=" + std::to_string(bit));
        expect_same_columns(*accepted, *original);
      }
    }
  }
}

// --- v3 pack section table ---------------------------------------------
// Oversized and overlapping claims must be caught before any payload is
// touched; tolerant mode then re-places what the table damage cost.

TEST(PackFaults, OversizedSectionClaimIsBoundedNotAllocated) {
  const std::string clean = serialize_pack(sample_snapshot());
  const auto original = decode_snapshot(clean);
  ASSERT_TRUE(original.has_value());
  std::string bytes = clean;
  // The hop-addr entry claims ~1e18 bytes: far past the mapping. The
  // validator must bound the claim against the bytes present, never follow
  // it.
  write_le(bytes, pack_entry_at(PackSection::kHopAddr) + 16,
           0x0DE0B6B3A7640000ull, 8);

  DecodeDiagnostics strict_diag;
  EXPECT_FALSE(decode_snapshot(bytes, DecodeOptions{}, &strict_diag).has_value());
  EXPECT_GE(strict_diag.count(FaultClass::kOversizedClaim), 1u);

  DecodeDiagnostics diag;
  const auto salvaged =
      decode_snapshot(bytes, DecodeOptions{.tolerant = true}, &diag);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_GE(diag.count(FaultClass::kOversizedClaim), 1u);
  // Its two sibling hop columns agree on the hop count, so tolerant mode
  // re-places the section from the table layout and loses nothing.
  expect_same_columns(*salvaged, *original);

  // With a second hop entry damaged too, no two siblings vouch for a hop
  // count: the hop columns are gone, traces with hops are individually
  // skipped, and the hopless record survives.
  write_le(bytes, pack_entry_at(PackSection::kHopRtt) + 16,
           0x0DE0B6B3A7640000ull, 8);
  DecodeDiagnostics both_diag;
  const auto thinned =
      decode_snapshot(bytes, DecodeOptions{.tolerant = true}, &both_diag);
  ASSERT_TRUE(thinned.has_value());
  EXPECT_GE(both_diag.count(FaultClass::kOversizedClaim), 2u);
  ASSERT_EQ(thinned->trace_count(), 1u);
  EXPECT_EQ(thinned->traces.view(0).hop_count(), 0u);
}

TEST(PackFaults, OverlappingSectionsAreRejectedAsBadTable) {
  const std::string clean = serialize_pack(sample_snapshot());
  const auto original = decode_snapshot(clean);
  ASSERT_TRUE(original.has_value());
  std::string bytes = clean;
  // Point the src column at the monitor column's payload: two claims over
  // one region means at least one of them lies, so both are dropped.
  const std::size_t monitor_entry = pack_entry_at(PackSection::kTraceMonitor);
  const std::size_t src_entry = pack_entry_at(PackSection::kTraceSrc);
  for (std::size_t field : {std::size_t{8}, std::size_t{16},
                            std::size_t{24}}) {  // offset, bytes, checksum
    for (int i = 0; i < 8; ++i) {
      bytes[src_entry + field + static_cast<std::size_t>(i)] =
          bytes[monitor_entry + field + static_cast<std::size_t>(i)];
    }
  }

  DecodeDiagnostics strict_diag;
  EXPECT_FALSE(decode_snapshot(bytes, DecodeOptions{}, &strict_diag).has_value());
  EXPECT_GE(strict_diag.count(FaultClass::kBadSectionTable), 1u);

  DecodeDiagnostics diag;
  const auto salvaged =
      decode_snapshot(bytes, DecodeOptions{.tolerant = true}, &diag);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_GE(diag.count(FaultClass::kBadSectionTable), 1u);
  // Neither claim is served: both columns are re-placed from the table
  // layout, so src is read from its own payload, never aliased to monitor.
  expect_same_columns(*salvaged, *original);
}

TEST(PackFaults, OneDamagedTableFieldCostsNoRecord) {
  // Any single bit flip in the table entries of the date and the eight
  // sibling-sized columns loses no record in tolerant mode: the entry is
  // rejected, dropped or outvoted, and the section re-placed. (Only the
  // date itself may be lost; the label pool's entry has no siblings to
  // repair it from.)
  const std::string clean = serialize_pack(sample_snapshot());
  const auto original = decode_snapshot(clean);
  ASSERT_TRUE(original.has_value());
  const std::size_t begin = pack_entry_at(PackSection::kDate);
  const std::size_t end = pack_entry_at(PackSection::kLsePool);
  for (std::size_t at = begin; at < end; ++at) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::string bytes = clean;
      bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^
                                    (1u << bit));
      DecodeDiagnostics diag;
      auto salvaged =
          decode_snapshot(bytes, DecodeOptions{.tolerant = true}, &diag);
      ASSERT_TRUE(salvaged.has_value()) << "at=" << at << " bit=" << bit;
      EXPECT_GE(diag.faults_total(), 1u) << "at=" << at << " bit=" << bit;
      salvaged->date = original->date;
      SCOPED_TRACE("at=" + std::to_string(at) + " bit=" + std::to_string(bit));
      expect_same_columns(*salvaged, *original);
    }
  }
}

TEST(WartsLite, TextRenderingContainsKeyFields) {
  const SnapshotBatch snap = sample_snapshot();
  const std::string text = to_text(snap);
  EXPECT_NE(text.find("cycle=42"), std::string::npos);
  EXPECT_NE(text.find("10.0.0.2"), std::string::npos);
  EXPECT_NE(text.find("L=300123"), std::string::npos);
  EXPECT_NE(text.find("*"), std::string::npos);  // anonymous hop
}

// Fuzz-ish property: random snapshots survive a round trip bit-exactly for
// the fields LPR consumes.
class WartsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WartsFuzz, RandomSnapshotsRoundTrip) {
  util::Rng rng(GetParam());
  const auto cycle_id = static_cast<std::uint32_t>(rng.below(100));
  const auto sub_index = static_cast<std::uint32_t>(rng.below(30));
  std::vector<TraceSpec> traces;
  const int n = 1 + static_cast<int>(rng.below(20));
  for (int i = 0; i < n; ++i) {
    TraceSpec t;
    t.monitor_id = static_cast<std::uint32_t>(rng.below(200));
    t.src = ip(static_cast<std::uint32_t>(rng.next()));
    t.dst = ip(static_cast<std::uint32_t>(rng.next()));
    t.reached = rng.chance(0.8);
    const int hops = static_cast<int>(rng.below(25));
    for (int h = 0; h < hops; ++h) {
      HopSpec hop;
      if (!rng.chance(0.1)) {
        hop.addr = ip(static_cast<std::uint32_t>(rng.next()));
        hop.rtt_ms = rng.uniform01() * 300.0;
        const int stack = static_cast<int>(rng.below(3));
        for (int s = 0; s < stack; ++s) {
          hop.labels.push(static_cast<std::uint32_t>(rng.below(1 << 20)),
                          static_cast<std::uint8_t>(rng.below(8)), 1);
        }
      }
      t.hops.push_back(std::move(hop));
    }
    traces.push_back(std::move(t));
  }
  const SnapshotBatch snap =
      test::snapshot_of(traces, cycle_id, sub_index, "2013-07");

  const auto back = decode_snapshot(serialize_pack(snap));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->trace_count(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const TraceSpec& a = traces[i];
    const TraceSpec b = test::spec_of(back->traces.view(i));
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.reached, b.reached);
    ASSERT_EQ(a.hops.size(), b.hops.size());
    for (std::size_t h = 0; h < a.hops.size(); ++h) {
      EXPECT_EQ(a.hops[h].addr, b.hops[h].addr);
      EXPECT_EQ(a.hops[h].labels, b.hops[h].labels);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WartsFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace mum::dataset
