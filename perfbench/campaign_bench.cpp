// Campaign bench binary: runs one workload of the campaign benchmark in one
// process and prints what it measured. perfbench/run.py launches it,
// checks the science and turns the raw numbers into metrics.
//
// Modes:
//   untraced   builds the world through run::Runner, then times
//              Runner::run_all_contained() (the library's campaign loop,
//              tracing off). Prints set-up time, run-phase wall and CPU
//              time, peak RSS and each cycle's manifest record.
//   traced     replays the Runner's cycle loop through the public call of
//              each layer, with a span around every call (wall, process CPU
//              and allocation count). Built with -DPERFBENCH_ALLOC_HOOK so
//              the untraced binary never pays for the operator new hook.
//   setup      builds the world only and prints the set-up time.
//   calibrate  times a fixed single-thread integer loop (noisy-neighbour
//              provenance).
//   build-type prints the CMake build type this binary was compiled with.
//
// Both report-producing modes print one "R\t<pass>\t<cycle>\t<json>" line
// per cycle (lpr::CycleReport::to_json) before the final JSON line, so the
// caller can compare reports byte for byte.
//
// Only calls that survive the roadmap's planned refactors are used: no
// evolve/format switches, no batch knobs, no named snapshot types (month
// snapshots are taken as `auto`).
#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/classify.h"
#include "core/extract.h"
#include "core/filters.h"
#include "core/report.h"
#include "dataset/snapshot_source.h"
#include "gen/campaign.h"
#include "gen/evolve.h"
#include "gen/internet.h"
#include "obs/log.h"
#include "obs/telemetry.h"
#include "run/checkpoint.h"
#include "run/runner.h"
#include "util/thread_pool.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench must not be built with sanitizers"
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#error "perfbench must not be built with sanitizers"
#endif
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------------------------------------
// Allocation counting (traced binary only). Every global operator new bumps
// a per-thread slot; slots are summed when a span opens and closes, so a
// span also counts what pool workers allocate on its behalf.

namespace {

struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> n{0};
};
constexpr std::size_t kAllocSlots = 16;
AllocSlot g_alloc_slots[kAllocSlots];
std::atomic<std::size_t> g_next_slot{0};

std::uint64_t allocations() noexcept {
  std::uint64_t total = 0;
  for (const AllocSlot& slot : g_alloc_slots) {
    total += slot.n.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace

#ifdef PERFBENCH_ALLOC_HOOK

namespace {

void count_allocation() noexcept {
  // Constant-initialized thread_local: reading it never allocates.
  static thread_local std::size_t slot = kAllocSlots;
  if (slot == kAllocSlots) {
    slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kAllocSlots;
  }
  g_alloc_slots[slot].n.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  count_allocation();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  count_allocation();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) ==
      0) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // PERFBENCH_ALLOC_HOOK

namespace {

using namespace mum;

// ---------------------------------------------------------------------------
// Clocks

std::uint64_t wall_ns() noexcept { return obs::monotonic_ns(); }

std::uint64_t process_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t peak_rss_bytes() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024ull;
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------------------
// Workloads

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t world_seed = 20151028;
  int threads = 1;
  int cycles = 0;  // cycles 1..N of the campaign
  int persistence_j = -1;  // >= 0 perturbs the pipeline (self-test)
  std::string dir;  // checkpoint directory (resume)
};

struct Workload {
  run::RunnerConfig config;
  bool two_pass = false;  // resume: write pass, then re-ingest pass
};

Workload make_workload(const Options& opt) {
  Workload w;
  run::RunnerConfig& c = w.config;
  c.gen.seed = opt.world_seed;
  c.threads = opt.threads;
  if (opt.workload == "study" || opt.workload == "study-par") {
    // The default GenConfig: the paper study.
  } else if (opt.workload == "churn") {
    // --small --scale routers=20000 --churn link=0.05
    c.gen.background_transit = 8;
    c.gen.stub_ases = 12;
    c.gen.monitors = 6;
    c.gen.dests_per_monitor = 150;
    c.gen.scale_routers = 20000;
    c.gen.churn.link_down_prob = 0.05;
  } else if (opt.workload == "resume") {
    w.two_pass = true;
    if (opt.dir.empty()) throw std::invalid_argument("resume needs --dir");
    c.checkpoint_dir = opt.dir;
    c.checkpoint_data = true;
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  c.first_cycle = 0;
  c.last_cycle = opt.cycles - 1;
  if (opt.persistence_j >= 0) {
    c.pipeline.filter.persistence_j = opt.persistence_j;
  }
  return w;
}

// The resume pass starts after the report checkpoints are deleted, so every
// cycle re-ingests its data shards.
void delete_report_checkpoints(const std::string& dir, int first, int last) {
  for (int cycle = first; cycle <= last; ++cycle) {
    std::filesystem::remove(std::filesystem::path(dir) /
                            run::checkpoint_filename(cycle));
  }
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

void print_report_line(int pass, const lpr::CycleReport& report) {
  std::cout << "R\t" << pass << '\t' << report.cycle_id << '\t'
            << report.to_json() << '\n';
}

std::string json_array(const std::vector<double>& values) {
  std::ostringstream os;
  os.precision(17);
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? "," : "") << values[i];
  }
  os << ']';
  return os.str();
}

// ---------------------------------------------------------------------------
// untraced / setup

int run_setup(const Options& opt) {
  const Workload w = make_workload(opt);
  const std::uint64_t t0 = wall_ns();
  const run::Runner runner(w.config);
  const std::uint64_t t1 = wall_ns();
  std::cout.precision(17);
  std::cout << "{\"setup_s\":" << seconds(t1 - t0) << "}\n";
  return 0;
}

int run_untraced(const Options& opt) {
  const Workload w = make_workload(opt);
  std::vector<double> setup_s;
  std::uint64_t run_wall = 0;
  std::uint64_t run_cpu = 0;
  std::ostringstream cycles;
  bool first_record = true;

  const int passes = w.two_pass ? 2 : 1;
  for (int pass = 0; pass < passes; ++pass) {
    run::RunnerConfig config = w.config;
    if (pass == 1) {
      delete_report_checkpoints(config.checkpoint_dir, config.first_cycle,
                                config.last_cycle);
      config.resume = true;
    }
    const std::uint64_t s0 = wall_ns();
    const run::Runner runner(config);
    setup_s.push_back(seconds(wall_ns() - s0));

    const std::uint64_t c0 = process_cpu_ns();
    const std::uint64_t t0 = wall_ns();
    const run::RunOutcome outcome = runner.run_all_contained();
    run_wall += wall_ns() - t0;
    run_cpu += process_cpu_ns() - c0;

    for (const run::CycleStatus& status : outcome.manifest.cycles) {
      cycles << (first_record ? "" : ",") << "{\"pass\":" << pass
             << ",\"cycle\":" << status.cycle << ",\"outcome\":\""
             << run::to_cstring(status.outcome)
             << "\",\"duration_ns\":" << status.duration_ns << '}';
      first_record = false;
    }
    for (const lpr::CycleReport& report : outcome.report.cycles) {
      print_report_line(pass, report);
    }
  }

  std::cout.precision(17);
  std::cout << "{\"mode\":\"untraced\",\"setup_s\":" << json_array(setup_s)
            << ",\"wall_s\":" << seconds(run_wall)
            << ",\"cpu_s\":" << seconds(run_cpu)
            << ",\"peak_rss_bytes\":" << peak_rss_bytes()
            << ",\"threads\":" << opt.threads << ",\"cycles\":["
            << cycles.str() << "]}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// traced

enum Layer : int {
  kEvolve,
  kProbe,
  kExtract,
  kFilter,
  kGroup,
  kClassify,
  kPersist,
  kIngest,
  kLayers
};
constexpr const char* kLayerNames[kLayers] = {
    "gen.evolve",     "probe",         "core.extract", "core.filter",
    "core.group",     "core.classify", "run.persist",  "dataset.ingest"};

struct LayerTotals {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t allocs = 0;
};

// Flat (never nested) span: the whole interval is the layer's self time.
class Span {
 public:
  explicit Span(LayerTotals& totals) noexcept
      : totals_(&totals),
        wall0_(wall_ns()),
        cpu0_(process_cpu_ns()),
        allocs0_(allocations()) {}
  ~Span() {
    totals_->wall_ns += wall_ns() - wall0_;
    totals_->cpu_ns += process_cpu_ns() - cpu0_;
    totals_->allocs += allocations() - allocs0_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerTotals* totals_;
  std::uint64_t wall0_;
  std::uint64_t cpu0_;
  std::uint64_t allocs0_;
};

// Shard writes in the library-default container format. Written against
// whichever write_data_shard signature the library has, so this file keeps
// compiling once the format switch is retired.
template <class Config, class Snap>
bool persist_shard(const Config& config, int cycle, std::size_t sub,
                   const Snap& snapshot) {
  if constexpr (requires {
                  run::write_data_shard(config.checkpoint_dir, cycle, sub,
                                        snapshot, config.snapshot_format);
                }) {
    return run::write_data_shard(config.checkpoint_dir, cycle, sub, snapshot,
                                 config.snapshot_format);
  } else {
    return run::write_data_shard(config.checkpoint_dir, cycle, sub, snapshot);
  }
}

// Re-annotation of an ingested snapshot (annotations are not persisted).
template <class Snap>
void annotate(const dataset::Ip2As& ip2as, Snap& snapshot) {
  if constexpr (requires { ip2as.annotate(snapshot.traces); }) {
    ip2as.annotate(snapshot.traces);
  } else {
    ip2as.annotate(snapshot);
  }
}

class TracedCampaign {
 public:
  explicit TracedCampaign(const Workload& w)
      : w_(w),
        pool_(w.config.threads > 1 ? std::make_unique<util::ThreadPool>(
                                         static_cast<unsigned>(
                                             w.config.threads))
                                   : nullptr),
        internet_(w.config.gen, pool_.get()),
        ip2as_(internet_.build_ip2as()) {}

  // The Runner's cycle loop for a clean campaign: evolve, probe, (persist
  // shards), LPR, (persist report checkpoint). Like the Runner, it keeps
  // every cycle's report until the pass ends.
  void compute_pass(int pass) {
    const run::RunnerConfig& config = w_.config;
    const bool persist = !config.checkpoint_dir.empty();
    reports_.resize(static_cast<std::size_t>(config.last_cycle -
                                             config.first_cycle + 1));
    gen::DeltaEvolver evolver(internet_, pool_.get());
    for (int cycle = config.first_cycle; cycle <= config.last_cycle;
         ++cycle) {
      const std::uint64_t t0 = wall_ns();
      lpr::CycleReport& report = slot(cycle);
      {
        const Span span(layers_[kEvolve]);
        evolver.evolve_to(cycle);
      }
      const gen::CycleDeltaStats& delta = evolver.last_stats();
      spf_sources_total_ += delta.spf_sources_total;
      spf_sources_recomputed_ += delta.spf_sources_recomputed;
      lsps_signalled_ += delta.lsps_signalled;

      auto month = [&] {
        const Span span(layers_[kProbe]);
        const gen::CampaignRunner campaign(internet_, ip2as_,
                                           campaign_for(cycle), pool_.get());
        return campaign.month(evolver, cycle);
      }();
      if (persist) {
        const Span span(layers_[kPersist]);
        for (std::size_t sub = 0; sub < month.snapshots.size(); ++sub) {
          if (!persist_shard(config, cycle, sub, month.snapshots[sub])) {
            throw std::runtime_error("data shard write failed");
          }
        }
      }
      report = pipeline(month, probe_traces_);
      if (persist) persist_report(cycle, report);
      record_cycle(pass, cycle, wall_ns() - t0);
    }
  }

  // The resume loop: no report checkpoint, so every cycle re-ingests its
  // shards (strict decode), then LPR, then a fresh report checkpoint.
  void resume_pass(int pass) {
    const run::RunnerConfig& config = w_.config;
    reports_.resize(static_cast<std::size_t>(config.last_cycle -
                                             config.first_cycle + 1));
    for (int cycle = config.first_cycle; cycle <= config.last_cycle;
         ++cycle) {
      const std::uint64_t t0 = wall_ns();
      lpr::CycleReport& report = slot(cycle);
      dataset::MonthData month;
      month.cycle_id = static_cast<std::uint32_t>(cycle);
      month.date = gen::cycle_date(cycle);
      auto source = [&] {
        const Span span(layers_[kIngest]);
        if (run::load_checkpoint_file(config.checkpoint_dir, cycle)) {
          throw std::runtime_error("report checkpoint survived deletion");
        }
        const auto paths = run::find_data_shards(config.checkpoint_dir, cycle);
        for (const std::string& path : paths) {
          ingest_bytes_ += std::filesystem::file_size(path);
        }
        return dataset::make_file_source(paths, dataset::DecodeOptions{},
                                         pool_.get());
      }();
      {
        const Span span(layers_[kIngest]);
        while (auto snapshot = source->next()) {
          annotate(ip2as_, *snapshot);
          month.snapshots.push_back(std::move(*snapshot));
        }
      }
      const std::size_t expected =
          static_cast<std::size_t>(config.campaign.extra_snapshots) + 1;
      if (source->failed() || month.snapshots.size() != expected) {
        throw std::runtime_error("data shards missing or undecodable");
      }
      report = pipeline(month, ingest_traces_);
      report.decode = source->diagnostics();
      persist_report(cycle, report);
      record_cycle(pass, cycle, wall_ns() - t0);
    }
  }

  void run() {
    obs::registry().reset();
    const std::uint64_t c0 = process_cpu_ns();
    const std::uint64_t t0 = wall_ns();
    compute_pass(0);
    std::uint64_t before = 0;
    if (w_.two_pass) {
      {
        const Excluded pause(*this);
        print_reports(0);
        // Bytes the write pass left on disk (shards + report checkpoints).
        persist_bytes_ += directory_bytes(w_.config.checkpoint_dir);
        delete_report_checkpoints(w_.config.checkpoint_dir,
                                  w_.config.first_cycle,
                                  w_.config.last_cycle);
        before = directory_bytes(w_.config.checkpoint_dir);
      }
      resume_pass(1);
    }
    wall_total_ns_ = wall_ns() - t0 - excluded_.wall_ns;
    cpu_total_ns_ = process_cpu_ns() - c0 - excluded_.cpu_ns;
    if (w_.two_pass) {
      // The resume pass's fresh report checkpoints.
      persist_bytes_ += directory_bytes(w_.config.checkpoint_dir) - before;
    }
    for (const char* name :
         {"igp.compute_ns", "igp.reconverge_ns", "igp.delta_reconverge_ns"}) {
      spf_ns_ += obs::registry().histogram(name).snapshot().sum;
    }
    print_reports(w_.two_pass ? 1 : 0);
  }

  void print() const {
    obs::Registry& registry = obs::registry();
    std::ostringstream os;
    os.precision(17);
    os << "{\"mode\":\"traced\",\"threads\":" << w_.config.threads
       << ",\"wall_s\":" << seconds(wall_total_ns_)
       << ",\"cpu_s\":" << seconds(cpu_total_ns_) << ",\"layers\":{";
    for (int l = 0; l < kLayers; ++l) {
      os << (l ? "," : "") << '"' << kLayerNames[l] << "\":{\"self_s\":"
         << seconds(layers_[l].wall_ns)
         << ",\"cpu_s\":" << seconds(layers_[l].cpu_ns)
         << ",\"allocs\":" << layers_[l].allocs << '}';
    }
    os << "},\"counts\":{"
       << "\"igp.reconverge_sources_recomputed\":"
       << registry.counter("igp.reconverge_sources_recomputed").value()
       << ",\"igp.reconverge_sources_skipped\":"
       << registry.counter("igp.reconverge_sources_skipped").value()
       << ",\"delta.spf_sources_total\":" << spf_sources_total_
       << ",\"delta.spf_sources_recomputed\":" << spf_sources_recomputed_
       << ",\"mpls.lsps_signalled\":" << lsps_signalled_
       << ",\"igp.spf_ns\":" << spf_ns_
       << ",\"probe.traces\":" << probe_traces_
       << ",\"probe.hops\":" << registry.counter("probe.batch.hops").value()
       << ",\"core.observed\":" << filter_observed_
       << ",\"core.kept\":" << filter_kept_ << ",\"core.iotps\":" << iotps_
       << ",\"run.persist.bytes\":" << persist_bytes_
       << ",\"dataset.ingest.bytes\":" << ingest_bytes_
       << ",\"dataset.ingest.traces\":" << ingest_traces_ << "},\"cycles\":["
       << cycles_.str() << "]}";
    std::cout << os.str() << '\n';
  }

 private:
  gen::CampaignConfig campaign_for(int cycle) const {
    // The fleet dips, rebuilt from the public RunnerConfig field.
    gen::CampaignConfig campaign = w_.config.campaign;
    const auto dip = w_.config.fleet_share_by_cycle.find(cycle);
    if (dip != w_.config.fleet_share_by_cycle.end()) {
      campaign.monitor_share *= dip->second;
    }
    return campaign;
  }

  // lpr::run_pipeline, one span per public call. `traces` gains the month's
  // trace count (the extract statistics, so no snapshot type is named).
  template <class Month>
  lpr::CycleReport pipeline(const Month& month, std::uint64_t& traces) {
    const lpr::PipelineConfig& config = w_.config.pipeline;
    std::vector<lpr::ExtractedSnapshot> extracted(month.snapshots.size());
    {
      const Span span(layers_[kExtract]);
      util::parallel_for(pool_.get(), month.snapshots.size(),
                         [&](std::size_t i) {
                           extracted[i] =
                               lpr::extract_lsps(month.snapshots[i], ip2as_);
                         });
    }
    for (const lpr::ExtractedSnapshot& e : extracted) {
      traces += e.stats.traces_total;
    }
    const lpr::ExtractedSnapshot cycle = std::move(extracted.front());
    const std::vector<lpr::ExtractedSnapshot> following(
        std::make_move_iterator(extracted.begin() + 1),
        std::make_move_iterator(extracted.end()));

    lpr::CycleReport report;
    report.cycle_id = cycle.cycle_id;
    report.date = cycle.date;
    report.extract_stats = cycle.stats;
    lpr::FilteredCycle filtered = [&] {
      const Span span(layers_[kFilter]);
      return lpr::apply_filters(cycle, following, config.filter);
    }();
    report.filter_stats = filtered.stats;
    filter_observed_ += filtered.stats.observed;
    filter_kept_ += filtered.stats.after_persistence;
    {
      const Span span(layers_[kGroup]);
      report.iotps = lpr::group_iotps(filtered.observations);
    }
    iotps_ += report.iotps.size();
    {
      const Span span(layers_[kClassify]);
      report.global =
          lpr::classify_all(report.iotps, config.classify, pool_.get());
      for (const lpr::IotpRecord& rec : report.iotps) {
        report.per_as[rec.key.asn].add(rec);
      }
      for (const std::uint32_t asn : filtered.dynamic_asns) {
        report.dynamic_as[asn] = true;
      }
    }
    return report;
  }

  void persist_report(int cycle, const lpr::CycleReport& report) {
    const Span span(layers_[kPersist]);
    if (!run::write_checkpoint_file(w_.config.checkpoint_dir, cycle, report)) {
      throw std::runtime_error("report checkpoint write failed");
    }
  }

  lpr::CycleReport& slot(int cycle) {
    return reports_[static_cast<std::size_t>(cycle - w_.config.first_cycle)];
  }

  // Prints and drops a finished pass's reports.
  void print_reports(int pass) {
    for (const lpr::CycleReport& report : reports_) {
      print_report_line(pass, report);
    }
    reports_.clear();
  }

  void record_cycle(int pass, int cycle, std::uint64_t duration_ns) {
    cycles_ << (cycles_.tellp() > 0 ? "," : "") << "{\"pass\":" << pass
            << ",\"cycle\":" << cycle << ",\"outcome\":\""
            << (pass == 0 ? "ok" : "from_data")
            << "\",\"duration_ns\":" << duration_ns << '}';
  }

  const Workload& w_;
  std::unique_ptr<util::ThreadPool> pool_;
  gen::Internet internet_;
  dataset::Ip2As ip2as_;

  LayerTotals layers_[kLayers];
  std::uint64_t wall_total_ns_ = 0;
  std::uint64_t cpu_total_ns_ = 0;
  // Benchmark bookkeeping inside the run phase, kept out of its wall and
  // CPU totals.
  LayerTotals excluded_;
  struct Excluded : Span {
    explicit Excluded(TracedCampaign& c) noexcept : Span(c.excluded_) {}
  };
  std::uint64_t spf_sources_total_ = 0;
  std::uint64_t spf_sources_recomputed_ = 0;
  std::uint64_t lsps_signalled_ = 0;
  std::uint64_t spf_ns_ = 0;  // the igp layer's own timers
  std::vector<lpr::CycleReport> reports_;
  std::uint64_t probe_traces_ = 0;
  std::uint64_t filter_observed_ = 0;
  std::uint64_t filter_kept_ = 0;
  std::uint64_t iotps_ = 0;
  std::uint64_t persist_bytes_ = 0;
  std::uint64_t ingest_bytes_ = 0;
  std::uint64_t ingest_traces_ = 0;
  std::ostringstream cycles_;
};

int run_traced(const Options& opt) {
  const Workload w = make_workload(opt);
  TracedCampaign campaign(w);
  campaign.run();
  campaign.print();
  return 0;
}

// ---------------------------------------------------------------------------
// calibrate

int run_calibrate() {
  // A dependent chain of integer mixes: no memory traffic, no vectorization,
  // so its time tracks the core's speed and how much of it this process got.
  const std::uint64_t t0 = wall_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t i = 0; i < 100000000u; ++i) {
    x ^= x >> 31;
    x *= 0xBF58476D1CE4E5B9ull;
    x += i;
  }
  const std::uint64_t t1 = wall_ns();
  std::cout.precision(17);
  std::cout << "{\"calibration_s\":" << seconds(t1 - t0)
            << ",\"checksum\":" << (x & 0xFFFF) << "}\n";
  return 0;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--mode") {
      opt.mode = value;
    } else if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--world-seed") {
      opt.world_seed = std::stoull(value);
    } else if (arg == "--threads") {
      opt.threads = std::stoi(value);
    } else if (arg == "--cycles") {
      opt.cycles = std::stoi(value);
    } else if (arg == "--persistence-j") {
      opt.persistence_j = std::stoi(value);
    } else if (arg == "--dir") {
      opt.dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (opt.threads < 1) throw std::invalid_argument("--threads must be >= 1");
  if (opt.mode != "calibrate" && opt.mode != "build-type" &&
      (opt.cycles < 1 || opt.cycles > gen::kCycles)) {
    throw std::invalid_argument("--cycles must be in [1, 60]");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    obs::set_log_sink(nullptr);
    if (opt.mode == "calibrate") return run_calibrate();
    if (opt.mode == "setup") return run_setup(opt);
    if (opt.mode == "untraced") return run_untraced(opt);
    if (opt.mode == "traced") {
#ifndef PERFBENCH_ALLOC_HOOK
      std::cerr << "perfbench: traced mode needs the traced binary\n";
      return 1;
#endif
      return run_traced(opt);
    }
    if (opt.mode == "build-type") {
      std::cout << PERFBENCH_BUILD_TYPE << '\n';
      return 0;
    }
    std::cerr << "perfbench: unknown --mode '" << opt.mode << "'\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
