#include "core/extract.h"

#include <gtest/gtest.h>

#include "trace_builder.h"

namespace mum::lpr {
namespace {

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

// Addresses: AS65001 owns 0x10xx, AS65002 owns 0x20xx, dst AS 65099 = 0x90xx.
dataset::Ip2As test_ip2as() {
  dataset::Ip2As ip2as;
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x10000000), 8), 65001);
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x20000000), 8), 65002);
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x90000000), 8), 65099);
  return ip2as;
}

test::HopSpec plain(std::uint32_t addr) {
  test::HopSpec hop;
  hop.addr = ip(addr);
  return hop;
}

test::HopSpec labeled(std::uint32_t addr, std::uint32_t label) {
  test::HopSpec hop;
  hop.addr = ip(addr);
  hop.labels.push(label, 0, 1);
  return hop;
}

test::HopSpec anonymous() { return test::HopSpec{}; }

dataset::SnapshotBatch snapshot_of(
    const std::vector<test::TraceSpec>& traces) {
  dataset::SnapshotBatch snap = test::snapshot_of(traces, 1, 0, "2014-12");
  test_ip2as().annotate(snap.traces);
  return snap;
}

test::TraceSpec trace_of(std::vector<test::HopSpec> hops,
                         std::uint32_t dst = 0x90000001) {
  test::TraceSpec t;
  t.dst = ip(dst);
  t.reached = true;
  t.hops = std::move(hops);
  return t;
}

TEST(Extract, SimplePhpTunnel) {
  // entry(no label) LSR LSR exit(no label, same AS) ... dst
  const auto snap = snapshot_of({trace_of({plain(0x10000001),
                                           labeled(0x10000002, 100),
                                           labeled(0x10000003, 200),
                                           plain(0x10000004),
                                           plain(0x90000001)})});
  const auto extracted = extract_lsps(snap, test_ip2as());
  ASSERT_EQ(extracted.observations.size(), 1u);
  const Lsp& lsp = extracted.observations[0].lsp;
  EXPECT_EQ(lsp.asn, 65001u);
  EXPECT_EQ(lsp.ingress, ip(0x10000001));
  EXPECT_EQ(lsp.egress, ip(0x10000004));
  EXPECT_FALSE(lsp.egress_labeled);
  ASSERT_EQ(lsp.lsrs.size(), 2u);
  EXPECT_EQ(lsp.lsrs[0].labels, (std::vector<std::uint32_t>{100}));
  EXPECT_EQ(extracted.observations[0].dst_asn, 65099u);
  EXPECT_EQ(extracted.stats.lsps_observed, 1u);
  EXPECT_EQ(extracted.stats.lsps_incomplete, 0u);
  EXPECT_EQ(extracted.stats.traces_with_explicit_tunnel, 1u);
}

TEST(Extract, NonPhpTunnelUsesLastLabeledHopAsEgress) {
  // Labeled run directly followed by a hop in ANOTHER AS: no PHP, the last
  // labeled hop is the Egress LER.
  const auto snap = snapshot_of({trace_of({plain(0x10000001),
                                           labeled(0x10000002, 100),
                                           labeled(0x10000003, 200),
                                           plain(0x20000001),
                                           plain(0x90000001)})});
  const auto extracted = extract_lsps(snap, test_ip2as());
  ASSERT_EQ(extracted.observations.size(), 1u);
  const Lsp& lsp = extracted.observations[0].lsp;
  EXPECT_EQ(lsp.egress, ip(0x10000003));
  EXPECT_TRUE(lsp.egress_labeled);
  EXPECT_EQ(lsp.intermediate_lsr_count(), 1);  // egress not intermediate
}

TEST(Extract, MissingIngressMakesIncomplete) {
  // Trace starts directly with a labeled hop.
  const auto snap = snapshot_of({trace_of({labeled(0x10000002, 100),
                                           plain(0x10000003),
                                           plain(0x90000001)})});
  const auto extracted = extract_lsps(snap, test_ip2as());
  EXPECT_TRUE(extracted.observations.empty());
  EXPECT_EQ(extracted.stats.lsps_observed, 1u);
  EXPECT_EQ(extracted.stats.lsps_incomplete, 1u);
}

TEST(Extract, MissingExitMakesIncomplete) {
  // Labeled run runs to the end of the trace.
  const auto snap = snapshot_of({trace_of({plain(0x10000001),
                                           labeled(0x10000002, 100)})});
  const auto extracted = extract_lsps(snap, test_ip2as());
  EXPECT_TRUE(extracted.observations.empty());
  EXPECT_EQ(extracted.stats.lsps_incomplete, 1u);
}

TEST(Extract, AnonymousIngressMakesIncomplete) {
  const auto snap = snapshot_of({trace_of({anonymous(),
                                           labeled(0x10000002, 100),
                                           plain(0x10000003),
                                           plain(0x90000001)})});
  const auto extracted = extract_lsps(snap, test_ip2as());
  EXPECT_EQ(extracted.stats.lsps_incomplete, 1u);
  EXPECT_TRUE(extracted.observations.empty());
}

TEST(Extract, AnonymousInsideRunMakesIncomplete) {
  const auto snap = snapshot_of({trace_of({plain(0x10000001),
                                           labeled(0x10000002, 100),
                                           anonymous(),
                                           labeled(0x10000004, 300),
                                           plain(0x10000005),
                                           plain(0x90000001)})});
  const auto extracted = extract_lsps(snap, test_ip2as());
  EXPECT_EQ(extracted.stats.lsps_observed, 1u);  // one (broken) run
  EXPECT_EQ(extracted.stats.lsps_incomplete, 1u);
  EXPECT_TRUE(extracted.observations.empty());
}

TEST(Extract, MultiAsRunFlaggedForIntraAsFilter) {
  const auto snap = snapshot_of({trace_of({plain(0x10000001),
                                           labeled(0x10000002, 100),
                                           labeled(0x20000002, 200),
                                           plain(0x20000003),
                                           plain(0x90000001)})});
  const auto extracted = extract_lsps(snap, test_ip2as());
  ASSERT_EQ(extracted.observations.size(), 1u);
  EXPECT_EQ(extracted.observations[0].lsp.asn, 0u);  // inter-domain marker
}

TEST(Extract, TwoTunnelsInOneTrace) {
  const auto snap = snapshot_of({trace_of({plain(0x10000001),
                                           labeled(0x10000002, 100),
                                           plain(0x10000003),
                                           plain(0x20000001),
                                           labeled(0x20000002, 500),
                                           plain(0x20000003),
                                           plain(0x90000001)})});
  const auto extracted = extract_lsps(snap, test_ip2as());
  ASSERT_EQ(extracted.observations.size(), 2u);
  EXPECT_EQ(extracted.observations[0].lsp.asn, 65001u);
  EXPECT_EQ(extracted.observations[1].lsp.asn, 65002u);
  EXPECT_EQ(extracted.stats.traces_with_explicit_tunnel, 1u);
}

TEST(Extract, NoTunnelTrace) {
  const auto snap = snapshot_of({trace_of({plain(0x10000001),
                                           plain(0x10000002),
                                           plain(0x90000001)})});
  const auto extracted = extract_lsps(snap, test_ip2as());
  EXPECT_TRUE(extracted.observations.empty());
  EXPECT_EQ(extracted.stats.lsps_observed, 0u);
  EXPECT_EQ(extracted.stats.traces_with_explicit_tunnel, 0u);
  EXPECT_EQ(extracted.stats.traces_total, 1u);
}

TEST(Extract, MplsVsNonMplsIpCensus) {
  const auto snap = snapshot_of({trace_of({plain(0x10000001),
                                           labeled(0x10000002, 100),
                                           plain(0x10000003),
                                           plain(0x90000001)})});
  const auto extracted = extract_lsps(snap, test_ip2as());
  EXPECT_EQ(extracted.stats.mpls_ips, 1u);      // the labeled hop
  EXPECT_EQ(extracted.stats.non_mpls_ips, 3u);  // everything else
}

TEST(Extract, MplsIpCountedOnceAcrossTraces) {
  auto t1 = trace_of({plain(0x10000001), labeled(0x10000002, 100),
                      plain(0x10000003), plain(0x90000001)});
  auto t2 = t1;
  const auto snap = snapshot_of({t1, t2});
  const auto extracted = extract_lsps(snap, test_ip2as());
  EXPECT_EQ(extracted.stats.mpls_ips, 1u);
  EXPECT_EQ(extracted.stats.lsps_observed, 2u);
}

TEST(Extract, StackedLabelsPreserved) {
  test::HopSpec hop;
  hop.addr = ip(0x10000002);
  hop.labels.push(100, 0, 1);  // bottom
  hop.labels.push(200, 0, 1);  // top
  const auto snap = snapshot_of({trace_of({plain(0x10000001), hop,
                                           plain(0x10000003),
                                           plain(0x90000001)})});
  const auto extracted = extract_lsps(snap, test_ip2as());
  ASSERT_EQ(extracted.observations.size(), 1u);
  EXPECT_EQ(extracted.observations[0].lsp.lsrs[0].labels,
            (std::vector<std::uint32_t>{200, 100}));
}

TEST(Extract, CensusByAsSplitsCorrectly) {
  const auto snap = snapshot_of({trace_of({plain(0x10000001),
                                           labeled(0x10000002, 100),
                                           plain(0x10000003),
                                           labeled(0x20000002, 300),
                                           plain(0x20000003),
                                           plain(0x90000001)})});
  const auto census = census_by_as(snap);
  ASSERT_TRUE(census.contains(65001));
  EXPECT_EQ(census.at(65001).mpls_ips, 1u);
  EXPECT_EQ(census.at(65001).non_mpls_ips, 2u);
  EXPECT_EQ(census.at(65002).mpls_ips, 1u);
  EXPECT_EQ(census.at(65002).non_mpls_ips, 1u);
  EXPECT_EQ(census.at(65099).non_mpls_ips, 1u);
}

TEST(Extract, CensusAddressNeverDoubleCounted) {
  // An address seen both labeled and unlabeled counts as MPLS only.
  auto t1 = trace_of({plain(0x10000001), labeled(0x10000002, 100),
                      plain(0x10000003), plain(0x90000001)});
  auto t2 = trace_of({plain(0x10000001), plain(0x10000002),
                      plain(0x90000001)});
  const auto census = census_by_as(snapshot_of({t1, t2}));
  EXPECT_EQ(census.at(65001).mpls_ips, 1u);
  EXPECT_EQ(census.at(65001).non_mpls_ips, 2u);
}

}  // namespace
}  // namespace mum::lpr
