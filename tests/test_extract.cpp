#include "core/extract.h"

#include <gtest/gtest.h>

#include "lpr_reference.h"
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
  const Lsp lsp = extracted.observations.lsp(0);
  EXPECT_EQ(lsp.asn, 65001u);
  EXPECT_EQ(lsp.ingress, ip(0x10000001));
  EXPECT_EQ(lsp.egress, ip(0x10000004));
  EXPECT_FALSE(lsp.egress_labeled);
  ASSERT_EQ(lsp.lsrs.size(), 2u);
  EXPECT_EQ(lsp.lsrs[0].labels, (std::vector<std::uint32_t>{100}));
  EXPECT_EQ(extracted.observations.row(0).dst_asn, 65099u);
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
  const Lsp lsp = extracted.observations.lsp(0);
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
  EXPECT_EQ(extracted.observations.row(0).asn, 0u);  // inter-domain marker
}

TEST(Extract, TwoAsRunWithTiedVotesIsInterDomain) {
  // Two hops per AS: no majority to pick, and none is needed.
  const auto snap = snapshot_of({trace_of({plain(0x10000001),
                                           labeled(0x10000002, 100),
                                           labeled(0x10000003, 200),
                                           labeled(0x20000002, 300),
                                           labeled(0x20000003, 400),
                                           plain(0x20000004),
                                           plain(0x90000001)})});
  const auto extracted = extract_lsps(snap, test_ip2as());
  ASSERT_EQ(extracted.observations.size(), 1u);
  EXPECT_EQ(extracted.observations.row(0).asn, 0u);
}

TEST(Extract, TwoAsRunWithClearMajorityIsInterDomain) {
  // Three hops of AS65001 against one of AS65002: the majority AS does not
  // win — a run spanning two ASes is inter-domain whatever the votes.
  const auto snap = snapshot_of({trace_of({plain(0x10000001),
                                           labeled(0x10000002, 100),
                                           labeled(0x10000003, 200),
                                           labeled(0x10000004, 300),
                                           labeled(0x20000002, 400),
                                           plain(0x10000005),
                                           plain(0x90000001)})});
  const auto extracted = extract_lsps(snap, test_ip2as());
  ASSERT_EQ(extracted.observations.size(), 1u);
  EXPECT_EQ(extracted.observations.row(0).asn, 0u);
  // asn 0 never matches the exit hop: the last labeled hop is the egress.
  EXPECT_TRUE(extracted.observations.row(0).egress_labeled);
}

TEST(Extract, UnmappedHopsDoNotSplitARun) {
  // 0x30.. maps to no AS: the run's one mapped AS still owns it.
  const auto snap = snapshot_of({trace_of({plain(0x10000001),
                                           labeled(0x30000002, 100),
                                           labeled(0x10000003, 200),
                                           plain(0x10000004),
                                           plain(0x90000001)})});
  const auto extracted = extract_lsps(snap, test_ip2as());
  ASSERT_EQ(extracted.observations.size(), 1u);
  EXPECT_EQ(extracted.observations.row(0).asn, 65001u);
  EXPECT_FALSE(extracted.observations.row(0).egress_labeled);
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
  EXPECT_EQ(extracted.observations.row(0).asn, 65001u);
  EXPECT_EQ(extracted.observations.row(1).asn, 65002u);
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
  EXPECT_EQ(extracted.observations.lsp(0).lsrs[0].labels,
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

// --- block extraction + stitching ---------------------------------------

dataset::TraceBatch block_of(const std::vector<test::TraceSpec>& traces) {
  dataset::TraceBatch batch;
  for (const test::TraceSpec& trace : traces) test::append(batch, trace);
  test_ip2as().annotate(batch);
  return batch;
}

std::vector<test::TraceSpec> census_traces() {
  // 0x10000002 is labeled in the first trace and plain in the last one;
  // 0x20000002 is labeled twice; 0x10000001 and 0x90000001 never are.
  return {trace_of({plain(0x10000001), labeled(0x10000002, 100),
                    plain(0x10000003), plain(0x90000001)}),
          trace_of({plain(0x20000001), labeled(0x20000002, 500),
                    plain(0x20000003), plain(0x90000002)}),
          trace_of({plain(0x10000001), labeled(0x20000002, 501),
                    plain(0x20000004), plain(0x90000001)}),
          trace_of({plain(0x10000001), plain(0x10000002),
                    plain(0x90000001)})};
}

void expect_same(const ExtractedSnapshot& got, const ExtractedSnapshot& want) {
  EXPECT_EQ(got.stats.traces_total, want.stats.traces_total);
  EXPECT_EQ(got.stats.traces_with_explicit_tunnel,
            want.stats.traces_with_explicit_tunnel);
  EXPECT_EQ(got.stats.lsps_observed, want.stats.lsps_observed);
  EXPECT_EQ(got.stats.lsps_incomplete, want.stats.lsps_incomplete);
  EXPECT_EQ(got.stats.mpls_ips, want.stats.mpls_ips);
  EXPECT_EQ(got.stats.non_mpls_ips, want.stats.non_mpls_ips);
  ASSERT_EQ(got.observations.size(), want.observations.size());
  for (std::size_t i = 0; i < got.observations.size(); ++i) {
    EXPECT_TRUE(got.observations.lsp(i) == want.observations.lsp(i));
    EXPECT_EQ(got.observations.row(i).content_hash,
              want.observations.row(i).content_hash);
  }
}

TEST(Stitch, CensusUnionCountsAddressLabeledInOneBlockAsMpls) {
  const auto traces = census_traces();
  // Block 0 sees 0x10000002 labeled, block 1 sees it plain.
  std::vector<ExtractedBlock> blocks;
  blocks.push_back(extract_block(block_of({traces[0], traces[1]}),
                                 test_ip2as()));
  blocks.push_back(extract_block(block_of({traces[2], traces[3]}),
                                 test_ip2as()));
  EXPECT_EQ(blocks[0].stats.mpls_ips, 0u);  // settled by the stitch only
  const ExtractedSnapshot stitched = stitch_blocks(1, 0, "2014-12", blocks);
  EXPECT_EQ(stitched.stats.mpls_ips, 2u);      // 0x10000002, 0x20000002
  EXPECT_EQ(stitched.stats.non_mpls_ips, 7u);
  EXPECT_EQ(stitched.stats.traces_total, 4u);
  expect_same(stitched, extract_lsps(lpr::snapshot_of(traces), test_ip2as()));

  // The union is order-independent: plain first, labeled second.
  std::vector<ExtractedBlock> reversed;
  reversed.push_back(extract_block(block_of({traces[3]}), test_ip2as()));
  reversed.push_back(extract_block(block_of({traces[0]}), test_ip2as()));
  const ExtractedSnapshot two = stitch_blocks(1, 0, "2014-12", reversed);
  EXPECT_EQ(two.stats.mpls_ips, 1u);
  EXPECT_EQ(two.stats.non_mpls_ips, 3u);
}

TEST(Stitch, EmptyBlocksStitchToNothing) {
  const auto traces = census_traces();
  std::vector<ExtractedBlock> blocks;
  blocks.push_back(extract_block(dataset::TraceBatch(), test_ip2as()));
  blocks.push_back(extract_block(block_of({traces[0], traces[1]}),
                                 test_ip2as()));
  blocks.emplace_back();  // a monitor outside the fleet share
  blocks.push_back(extract_block(dataset::TraceBatch(), test_ip2as()));
  blocks.push_back(extract_block(block_of({traces[2], traces[3]}),
                                 test_ip2as()));
  const ExtractedSnapshot stitched = stitch_blocks(1, 2, "2014-12", blocks);
  EXPECT_EQ(stitched.cycle_id, 1u);
  EXPECT_EQ(stitched.sub_index, 2u);
  EXPECT_EQ(stitched.date, "2014-12");
  expect_same(stitched, extract_lsps(lpr::snapshot_of(traces), test_ip2as()));

  std::vector<ExtractedBlock> none(3);
  const ExtractedSnapshot empty = stitch_blocks(1, 0, "2014-12", none);
  EXPECT_TRUE(empty.observations.empty());
  EXPECT_EQ(empty.stats.traces_total, 0u);
  EXPECT_EQ(empty.stats.mpls_ips + empty.stats.non_mpls_ips, 0u);
}

TEST(Stitch, ObservationsConcatenateInBlockOrder) {
  const auto traces = census_traces();
  std::vector<ExtractedBlock> blocks;
  for (const test::TraceSpec& trace : traces) {
    blocks.push_back(extract_block(block_of({trace}), test_ip2as()));
  }
  const ExtractedSnapshot stitched = stitch_blocks(1, 0, "2014-12", blocks);
  ASSERT_EQ(stitched.observations.size(), 3u);
  EXPECT_EQ(stitched.observations.row(0).ingress, ip(0x10000001));
  EXPECT_EQ(stitched.observations.row(1).ingress, ip(0x20000001));
  EXPECT_EQ(stitched.observations.lsp(2).lsrs[0].labels,
            (std::vector<std::uint32_t>{501}));
}

// --- the flat table against the object-based oracle ------------------------

test::HopSpec stacked(std::uint32_t addr, std::uint32_t depth,
                      std::uint32_t base) {
  test::HopSpec hop;
  hop.addr = ip(addr);
  for (std::uint32_t k = 0; k < depth; ++k) hop.labels.push(base + k, 0, 1);
  return hop;
}

// One trace per shape the extractor distinguishes, each sent by its own
// monitor toward its own destination AS.
std::vector<test::TraceSpec> oracle_traces() {
  std::vector<test::TraceSpec> traces = {
      // A 6-entry stack between two plain LSRs, PHP egress.
      trace_of({plain(0x10000001), labeled(0x10000002, 100),
                stacked(0x10000003, 6, 900), labeled(0x10000004, 300),
                plain(0x10000005), plain(0x90000001)}),
      // Non-PHP egress: the run is followed by the next AS.
      trace_of({plain(0x10000001), labeled(0x10000002, 100),
                stacked(0x10000006, 2, 700), plain(0x20000001),
                plain(0x90000002)},
               0x90000002),
      // A '*' wedged inside a run (incomplete), then a complete run.
      trace_of({plain(0x10000001), labeled(0x10000002, 100), anonymous(),
                labeled(0x10000004, 300), plain(0x10000005),
                labeled(0x10000007, 400), plain(0x10000008),
                plain(0x90000001)}),
      // A multi-AS run (asn 0), with an unmapped hop inside.
      trace_of({plain(0x10000001), labeled(0x10000002, 100),
                labeled(0x30000001, 150), labeled(0x20000002, 200),
                plain(0x20000003), plain(0x90000001)}),
      // The first trace's LSP again, toward another destination AS.
      trace_of({plain(0x10000001), labeled(0x10000002, 100),
                stacked(0x10000003, 6, 900), labeled(0x10000004, 300),
                plain(0x10000005), plain(0x20000009)},
               0x20000009),
  };
  for (std::size_t i = 0; i < traces.size(); ++i) {
    traces[i].monitor_id = static_cast<std::uint32_t>(i);
  }
  return traces;
}

TEST(ExtractOracle, HandcraftedShapesMatchOracle) {
  const auto snap = lpr::snapshot_of(oracle_traces());
  const auto oracle = reference::extract_lsps(snap, test_ip2as());
  ASSERT_EQ(oracle.observations.size(), 5u);
  EXPECT_EQ(oracle.observations[0].lsp.lsrs[1].labels.size(), 6u);
  EXPECT_TRUE(oracle.observations[1].lsp.egress_labeled);
  EXPECT_EQ(oracle.observations[3].lsp.asn, 0u);
  reference::expect_same_extraction(extract_lsps(snap, test_ip2as()), oracle);

  // The same traces as one block per trace, stitched in order.
  std::vector<ExtractedBlock> blocks;
  for (const test::TraceSpec& trace : oracle_traces()) {
    blocks.push_back(extract_block(block_of({trace}), test_ip2as()));
  }
  reference::expect_same_extraction(stitch_blocks(1, 0, "2014-12", blocks),
                                    oracle);
}

TEST(ExtractOracle, HandcraftedPipelineMatchesOracle) {
  const auto snap = lpr::snapshot_of(oracle_traces());
  const std::vector<ExtractedSnapshot> month = {
      extract_lsps(snap, test_ip2as()), extract_lsps(snap, test_ip2as())};
  const std::vector<reference::ExtractedSnapshot> oracle = {
      reference::extract_lsps(snap, test_ip2as()),
      reference::extract_lsps(snap, test_ip2as())};
  reference::expect_same_pipeline(month, oracle);
  // The first LSP reaches two destination ASes: it survives every filter.
  const auto iotps = group_iotps(
      apply_filters(month[0], {&month[1], 1}, FilterConfig{}).observations);
  ASSERT_EQ(iotps.size(), 1u);
  EXPECT_EQ(iotps[0].dst_asns, (std::vector<std::uint32_t>{65002, 65099}));
  FilterConfig everything;
  everything.enable_intra_as = false;
  everything.enable_target_as = false;
  everything.enable_transit_diversity = false;
  everything.enable_persistence = false;
  reference::expect_same_pipeline(month, oracle, everything);
}

// --- LspTable ----------------------------------------------------------------

reference::LspObservation observation(std::uint32_t ingress,
                                      std::vector<LsrHop> lsrs,
                                      std::uint32_t dst_asn = 9) {
  reference::LspObservation o;
  o.lsp.asn = 65001;
  o.lsp.ingress = ip(ingress);
  o.lsp.egress = ip(ingress + 100);
  o.lsp.lsrs = std::move(lsrs);
  o.dst_asn = dst_asn;
  o.monitor_id = ingress;
  return o;
}

TEST(LspTable, RowHashIsLspContentHash) {
  const std::vector<reference::LspObservation> observations = {
      observation(1, {{ip(10), {500}}, {ip(11), {501, 502, 503, 504, 505}}}),
      observation(2, {{ip(10), {}}, {ip(12), {7}}}),
      observation(3, {})};
  const LspTable table = reference::table_of(observations);
  reference::expect_same_rows(table, observations);
  EXPECT_EQ(table.lsr_pool_size(), 4u);
  EXPECT_EQ(table.label_pool_size(), 7u);
}

TEST(LspTable, AppendRebasesPoolRanges) {
  const std::vector<reference::LspObservation> a = {
      observation(1, {{ip(10), {500}}, {ip(11), {501, 502}}})};
  const std::vector<reference::LspObservation> b = {
      observation(2, {{ip(20), {600, 601, 602}}}),
      observation(3, {{ip(30), {700}}, {ip(31), {701}}})};
  LspTable table = reference::table_of(a);
  table.append(reference::table_of(b));
  std::vector<reference::LspObservation> want = a;
  want.insert(want.end(), b.begin(), b.end());
  reference::expect_same_rows(table, want);

  LspTable picked;
  picked.append_row(table, 2);
  picked.append_row(table, 0);
  reference::expect_same_rows(picked, {want[2], want[0]});
}

TEST(LspTable, SameLspComparesContentOnly) {
  auto first = observation(1, {{ip(10), {500}}}, 9);
  auto again = observation(1, {{ip(10), {500}}}, 10);
  again.lsp.egress_labeled = true;
  again.monitor_id = 7;
  const auto relabeled = observation(1, {{ip(10), {501}}});
  const auto deeper = observation(1, {{ip(10), {500, 1}}});
  const LspTable table =
      reference::table_of({first, again, relabeled, deeper});
  EXPECT_TRUE(table.same_lsp(0, 1));
  EXPECT_EQ(table.row(0).content_hash, table.row(1).content_hash);
  EXPECT_FALSE(table.same_lsp(0, 2));
  EXPECT_FALSE(table.same_lsp(0, 3));
}

TEST(LspTable, SetEndpointsRecomputesHash) {
  LspTable table = reference::table_of(
      {observation(1, {{ip(10), {500}}, {ip(11), {501}}})});
  const std::uint64_t before = table.row(0).content_hash;
  table.set_endpoints(0, ip(5), ip(6));
  EXPECT_EQ(table.row(0).ingress, ip(5));
  EXPECT_EQ(table.row(0).egress, ip(6));
  EXPECT_NE(table.row(0).content_hash, before);
  EXPECT_EQ(table.row(0).content_hash, table.lsp(0).content_hash());
}

}  // namespace
}  // namespace mum::lpr
