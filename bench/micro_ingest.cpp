// Ingest throughput of the warts-lite v3 pack over a 60-cycle on-disk
// corpus (one snapshot per cycle, the paper's campaign length). Reports
// bytes/s (SetBytesProcessed) and traces/s (SetItemsProcessed);
// scripts/bench.sh records the numbers in BENCH_PR6.json and gates
// BM_IngestV3Mmap on an absolute traces/s bound.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dataset/pack.h"
#include "dataset/snapshot_source.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "util/mmap_file.h"

namespace {

using namespace mum;
namespace fs = std::filesystem;

struct Corpus {
  std::vector<std::string> v3_paths;
  std::uint64_t traces = 0;
  std::uint64_t v3_bytes = 0;
};

// Generate the corpus once, serialize every cycle as a pack, and leave the
// files in tmp for the mmap path to map for real.
const Corpus& corpus() {
  static const Corpus c = [] {
    Corpus built;
    const fs::path dir = fs::temp_directory_path() / "mum_bench_ingest";
    fs::remove_all(dir);
    fs::create_directories(dir);

    gen::GenConfig config;
    config.background_transit = 8;
    config.stub_ases = 12;
    config.monitors = 6;
    config.dests_per_monitor = 150;
    const gen::Internet internet(config);
    const auto ip2as = internet.build_ip2as();
    const gen::CampaignRunner campaign(internet, ip2as);

    for (int cycle = 0; cycle < gen::kCycles; ++cycle) {
      auto ctx = internet.instantiate(cycle);
      const auto snap = campaign.snapshot(ctx, cycle, 0);
      built.traces += snap.trace_count();

      const std::string v3 = dataset::serialize_pack(snap);
      built.v3_bytes += v3.size();
      const fs::path path =
          dir / ("cycle_" + std::to_string(cycle + 1) + ".mump");
      std::ofstream(path, std::ios::binary) << v3;
      built.v3_paths.push_back(path.string());
    }
    return built;
  }();
  return c;
}

// v3 ingest: mmap each shard and open a validated zero-copy view —
// section-table bounds checks, per-section checksums, offset-column scans.
// Records become addressable without per-record parsing; this is the state
// the pack reader hands to column-oriented consumers.
void BM_IngestV3Mmap(benchmark::State& state) {
  const Corpus& c = corpus();
  for (auto _ : state) {
    std::uint64_t traces = 0;
    for (const auto& path : c.v3_paths) {
      const auto file = util::MmapFile::open_ro(path);
      const auto view = dataset::PackView::open(file->view(), {}, nullptr);
      traces += view->valid_count();
    }
    if (traces != c.traces) state.SkipWithError("v3 open lost traces");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.v3_bytes));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.traces));
  state.SetLabel(std::to_string(c.v3_paths.size()) + " shards, " +
                 std::to_string(c.traces) + " traces");
}
BENCHMARK(BM_IngestV3Mmap)->Unit(benchmark::kMillisecond);

// Validate AND copy every record into an owning SnapshotBatch. The delta
// against BM_IngestV3Mmap is the cost of leaving the zero-copy regime.
void BM_IngestV3Materialize(benchmark::State& state) {
  const Corpus& c = corpus();
  for (auto _ : state) {
    std::uint64_t traces = 0;
    for (const auto& path : c.v3_paths) {
      const auto file = util::MmapFile::open_ro(path);
      const auto view = dataset::PackView::open(file->view(), {}, nullptr);
      traces += view->snapshot().trace_count();
    }
    if (traces != c.traces) state.SkipWithError("v3 decode lost traces");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.v3_bytes));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.traces));
}
BENCHMARK(BM_IngestV3Materialize)->Unit(benchmark::kMillisecond);

// The ingest stack end to end (decode + diagnostics accounting), as Runner
// and the CLI consume it.
void BM_IngestFileSource(benchmark::State& state) {
  const Corpus& c = corpus();
  for (auto _ : state) {
    auto source = dataset::make_file_source(c.v3_paths);
    std::uint64_t traces = 0;
    while (const auto snap = source->next()) traces += snap->trace_count();
    if (traces != c.traces) state.SkipWithError("source lost traces");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.traces));
}
BENCHMARK(BM_IngestFileSource)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
