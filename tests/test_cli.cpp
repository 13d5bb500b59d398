// CLI tests: argument parsing, the generate -> stats/classify/trees
// pipeline over real temp files, and error handling.
#include "cli.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/alias.h"
#include "core/extract.h"
#include "core/report.h"
#include "dataset/ip2as.h"
#include "dataset/snapshot_source.h"

namespace mum::cli {
namespace {

namespace fs = std::filesystem;

// --- Args ----------------------------------------------------------------

TEST(Args, TakeValueAndFlag) {
  Args args({"--out", "/tmp/x", "--small", "file1", "file2"});
  EXPECT_EQ(args.take_value("--out"), "/tmp/x");
  EXPECT_TRUE(args.take_flag("--small"));
  EXPECT_FALSE(args.take_flag("--small"));  // consumed
  EXPECT_EQ(args.positionals(),
            (std::vector<std::string>{"file1", "file2"}));
  EXPECT_FALSE(args.unknown_flag().has_value());
  EXPECT_TRUE(args.ok());
}

TEST(Args, MissingValueIsError) {
  Args args({"--out"});
  EXPECT_FALSE(args.take_value("--out").has_value());
  EXPECT_FALSE(args.ok());
}

TEST(Args, TakeIntDefaultsAndParses) {
  Args args({"--j", "5"});
  EXPECT_EQ(args.take_int("--j", 2), 5);
  EXPECT_EQ(args.take_int("--k", 7), 7);
  EXPECT_TRUE(args.ok());
}

TEST(Args, TakeIntRejectsGarbage) {
  Args args({"--j", "five"});
  EXPECT_EQ(args.take_int("--j", 2), 2);
  EXPECT_FALSE(args.ok());
}

TEST(Args, UnknownFlagDetected) {
  Args args({"--bogus", "x"});
  EXPECT_TRUE(args.unknown_flag().has_value());
  EXPECT_EQ(*args.unknown_flag(), "--bogus");
}

TEST(Args, ValueFlagAbsent) {
  Args args({"a", "b"});
  EXPECT_FALSE(args.take_value("--out").has_value());
  EXPECT_TRUE(args.ok());  // absence is not an error
}

// --- ip2as text round trip -------------------------------------------------

TEST(Ip2AsText, RoundTrip) {
  dataset::Ip2As table;
  table.add_prefix(*net::Ipv4Prefix::parse("16.0.0.0/15"), 7018);
  table.add_prefix(*net::Ipv4Prefix::parse("16.2.0.0/16"), 30000);
  const auto text = dataset::to_table_text(table);
  const auto back = dataset::ip2as_from_text(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->prefix_count(), 2u);
  EXPECT_EQ(back->lookup(*net::Ipv4Addr::parse("16.1.2.3")), 7018u);
  EXPECT_EQ(back->lookup(*net::Ipv4Addr::parse("16.2.2.3")), 30000u);
}

TEST(Ip2AsText, CommentsAndBlanksAllowed) {
  const auto table = dataset::ip2as_from_text(
      "# pfx2as\n\n16.0.0.0/16 100\n   \n16.1.0.0/16\t200\n");
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->prefix_count(), 2u);
}

TEST(Ip2AsText, MalformedRejected) {
  EXPECT_FALSE(dataset::ip2as_from_text("garbage").has_value());
  EXPECT_FALSE(dataset::ip2as_from_text("16.0.0.0/33 5").has_value());
  EXPECT_FALSE(dataset::ip2as_from_text("16.0.0.0/16 notanasn").has_value());
}

// --- end-to-end over temp files -------------------------------------------

class CliPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-suffixed so concurrent ctest -j processes cannot collide.
    dir_ = fs::temp_directory_path() /
           ("mum_cli_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int run_cmd(std::vector<std::string> argv_tail, std::string* out_text) {
    std::vector<const char*> argv{"mum"};
    for (const auto& a : argv_tail) argv.push_back(a.c_str());
    std::ostringstream out, err;
    const int code = run(static_cast<int>(argv.size()), argv.data(), out,
                         err);
    if (out_text != nullptr) *out_text = out.str() + err.str();
    return code;
  }

  std::vector<std::string> snapshot_files() const {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".mump") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  fs::path dir_;
};

TEST_F(CliPipeline, GenerateClassifyTreesStats) {
  std::string out;
  ASSERT_EQ(run_cmd({"generate", "--out", dir_.string(), "--cycle", "50",
                     "--small", "--snapshots", "2"},
                    &out),
            0)
      << out;
  const auto files = snapshot_files();
  ASSERT_EQ(files.size(), 2u);
  const std::string table = (dir_ / "ip2as.txt").string();
  ASSERT_TRUE(fs::exists(table));

  ASSERT_EQ(run_cmd({"stats", files[0], files[1]}, &out), 0) << out;
  EXPECT_NE(out.find("traces"), std::string::npos);

  ASSERT_EQ(run_cmd({"classify", "--ip2as", table, files[0], files[1]},
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("Mono-LSP"), std::string::npos);
  EXPECT_NE(out.find("IOTPs"), std::string::npos);

  std::string csv;
  ASSERT_EQ(run_cmd({"classify", "--csv", "--ip2as", table, files[0]},
                    &csv),
            0);
  EXPECT_NE(csv.find("class,IOTPs,share"), std::string::npos);

  std::string router_level;
  ASSERT_EQ(run_cmd({"classify", "--router-level", "--ip2as", table,
                     files[0], files[1]},
                    &router_level),
            0);
  EXPECT_NE(router_level.find("router-level IOTPs"), std::string::npos);
  EXPECT_NE(router_level.find("alias sets inferred"), std::string::npos);

  std::string json;
  ASSERT_EQ(run_cmd({"classify", "--json", "--ip2as", table, files[0]},
                    &json),
            0);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"global\""), std::string::npos);
  EXPECT_EQ(json.find("\"iotps\""), std::string::npos);
  std::string json_iotps;
  ASSERT_EQ(run_cmd({"classify", "--json-iotps", "--ip2as", table,
                     files[0]},
                    &json_iotps),
            0);
  EXPECT_NE(json_iotps.find("\"iotps\""), std::string::npos);

  ASSERT_EQ(run_cmd({"trees", "--ip2as", table, files[0]}, &out), 0) << out;
  EXPECT_NE(out.find("egress-rooted trees"), std::string::npos);
}

TEST_F(CliPipeline, DeterministicAcrossRuns) {
  std::string out1, out2;
  ASSERT_EQ(run_cmd({"generate", "--out", (dir_ / "a").string(), "--cycle",
                     "40", "--small"},
                    &out1),
            0);
  ASSERT_EQ(run_cmd({"generate", "--out", (dir_ / "b").string(), "--cycle",
                     "40", "--small"},
                    &out2),
            0);
  // Byte-identical snapshot files for the same seed/cycle.
  std::ifstream a(dir_ / "a" / "cycle_40_s0.mump", std::ios::binary);
  std::ifstream b(dir_ / "b" / "cycle_40_s0.mump", std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_FALSE(sa.str().empty());
}

// `classify --router-level --json` over a two-snapshot month equals the
// address-level pipeline with its IOTPs regrouped at router granularity:
// same extract and filter sections, classes recomputed over the
// alias-canonicalized survivors.
TEST_F(CliPipeline, ClassifyRouterLevelJson) {
  std::string out;
  ASSERT_EQ(run_cmd({"generate", "--out", dir_.string(), "--cycle", "50",
                     "--small", "--snapshots", "2"},
                    &out),
            0)
      << out;
  const auto files = snapshot_files();
  ASSERT_EQ(files.size(), 2u);
  const std::string table = (dir_ / "ip2as.txt").string();

  std::string json;
  ASSERT_EQ(run_cmd({"classify", "--router-level", "--json", "--ip2as",
                     table, files[0], files[1]},
                    &json),
            0)
      << json;

  // The expected output, assembled as the address-level report with its
  // classes overwritten by the router-level regroup.
  std::ifstream table_in(table);
  std::stringstream table_text;
  table_text << table_in.rdbuf();
  const auto ip2as = dataset::ip2as_from_text(table_text.str());
  ASSERT_TRUE(ip2as.has_value());
  dataset::MonthData month;
  const auto source = dataset::make_file_source(files, {}, nullptr);
  while (auto snap = source->next()) {
    ip2as->annotate(snap->traces);
    month.snapshots.push_back(std::move(*snap));
  }
  const auto extracted = lpr::extract_month(month, *ip2as, nullptr);
  lpr::PipelineConfig pipeline;
  pipeline.filter.enable_persistence = true;
  lpr::CycleReport report = lpr::run_pipeline(extracted, pipeline);
  const lpr::FilteredCycle filtered = lpr::apply_filters(
      extracted[0], std::span(extracted).subspan(1), pipeline.filter);
  const lpr::LabelAliasResolver resolver(filtered.observations,
                                         month.cycle().traces);
  auto iotps = lpr::group_iotps(
      lpr::to_router_level(filtered.observations, resolver));
  report.global = lpr::classify_all(iotps, pipeline.classify);
  report.per_as.clear();
  for (const auto& rec : iotps) report.per_as[rec.key.asn].add(rec);
  report.iotps = std::move(iotps);
  ASSERT_GT(resolver.alias_sets().size(), 0u);
  ASSERT_GT(report.global.total(), 0u);

  EXPECT_EQ(json, "(router-level IOTPs: " +
                      std::to_string(resolver.alias_sets().size()) +
                      " alias sets inferred)\n" + report.to_json() + "\n");
}

TEST_F(CliPipeline, ErrorsAreReported) {
  std::string out;
  EXPECT_NE(run_cmd({"classify", "--ip2as", "/nonexistent", "x.mump"},
                    &out),
            0);
  EXPECT_NE(run_cmd({"classify", "--ip2as"}, &out), 0);
  EXPECT_NE(run_cmd({"frobnicate"}, &out), 0);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
  EXPECT_NE(run_cmd({"generate", "--cycle", "50"}, &out), 0);  // no --out
  EXPECT_NE(run_cmd({"generate", "--out", dir_.string(), "--cycle", "99"},
                    &out),
            0);
}

TEST_F(CliPipeline, HelpPrintsUsage) {
  std::string out;
  EXPECT_EQ(run_cmd({"--help"}, &out), 0);
  EXPECT_NE(out.find("usage: mum"), std::string::npos);
}

TEST_F(CliPipeline, StatsRejectsGarbageFile) {
  const fs::path bogus = dir_ / "bogus.mump";
  std::ofstream(bogus) << "not a snapshot";
  std::string out;
  EXPECT_NE(run_cmd({"stats", bogus.string()}, &out), 0);
  EXPECT_NE(out.find("not a warts-lite snapshot"), std::string::npos);
}

TEST_F(CliPipeline, GeneratePackShardsFeedClassifyAndStats) {
  std::string out;
  ASSERT_EQ(run_cmd({"generate", "--out", dir_.string(), "--cycle", "50",
                     "--small", "--snapshots", "2"},
                    &out),
            kExitOk)
      << out;
  // Shards are named like the campaign's data shards and written
  // atomically: no temp litter survives a clean run.
  const fs::path p0 = dir_ / "cycle_50_s0.mump";
  const fs::path p1 = dir_ / "cycle_50_s1.mump";
  ASSERT_TRUE(fs::exists(p0));
  ASSERT_TRUE(fs::exists(p1));
  EXPECT_EQ(snapshot_files().size(), 2u);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  EXPECT_NE(out.find("wrote " + p0.string()), std::string::npos) << out;
  const std::string table = (dir_ / "ip2as.txt").string();
  ASSERT_EQ(run_cmd({"classify", "--ip2as", table, p0.string(), p1.string()},
                    &out),
            kExitOk)
      << out;
  EXPECT_NE(out.find("IOTPs"), std::string::npos);
  EXPECT_EQ(run_cmd({"stats", p0.string()}, &out), kExitOk);
  EXPECT_NE(out.find("traces"), std::string::npos);

  // --checkpoint-data only makes sense with a checkpoint directory.
  EXPECT_EQ(run_cmd({"campaign", "--cycles", "1", "--small",
                     "--checkpoint-data"},
                    &out),
            kExitUsage);
}

TEST_F(CliPipeline, GenerateUnwritableOutDirExitsThree) {
  // --out under a regular file: the shard directory cannot be created.
  const fs::path file = dir_ / "f";
  std::ofstream(file) << "not a directory";
  std::string out;
  EXPECT_EQ(run_cmd({"generate", "--small", "--cycle", "1", "--out",
                     (file / "sub").string()},
                    &out),
            kExitFatal)
      << out;
  EXPECT_NE(out.find("cannot write"), std::string::npos) << out;
  EXPECT_EQ(out.find("wrote"), std::string::npos) << out;

  // The shards land but ip2as.txt cannot be written (a directory holds its
  // name): fatal too, never a "wrote" line for it.
  const fs::path blocked = dir_ / "blocked";
  fs::create_directories(blocked / "ip2as.txt");
  EXPECT_EQ(run_cmd({"generate", "--small", "--cycle", "1", "--out",
                     blocked.string()},
                    &out),
            kExitFatal)
      << out;
  EXPECT_NE(out.find("cannot write " + (blocked / "ip2as.txt").string()),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("prefixes"), std::string::npos) << out;
}

// --- exit codes ------------------------------------------------------------

TEST_F(CliPipeline, UsageErrorsExitOne) {
  std::string out;
  EXPECT_EQ(run_cmd({"frobnicate"}, &out), kExitUsage);
  EXPECT_EQ(run_cmd({"generate", "--cycle", "5"}, &out), kExitUsage);
  EXPECT_EQ(run_cmd({"generate", "--out", dir_.string(), "--cycle", "99"},
                    &out),
            kExitUsage);
  EXPECT_EQ(run_cmd({"classify"}, &out), kExitUsage);  // --ip2as missing
  EXPECT_EQ(run_cmd({"stats", "--bogus-flag", "x.mump"}, &out), kExitUsage);
  EXPECT_EQ(run_cmd({"campaign", "--cycles", "0"}, &out), kExitUsage);
  EXPECT_EQ(run_cmd({"campaign", "--chaos", "bogus=1"}, &out), kExitUsage);
  EXPECT_EQ(run_cmd({"stats", "--tolerant", "--strict", "x.mump"}, &out),
            kExitUsage);
}

TEST_F(CliPipeline, GenerateRejectsFewerThanOneSnapshot) {
  // A month needs its cycle snapshot: --snapshots below 1 is a usage error
  // (like an out-of-range --cycle), not a silent run that writes nothing.
  for (const char* count : {"0", "-1"}) {
    std::string out;
    EXPECT_EQ(run_cmd({"generate", "--out", dir_.string(), "--cycle", "50",
                       "--small", "--snapshots", count},
                      &out),
              kExitUsage)
        << "--snapshots " << count;
    EXPECT_NE(out.find("--snapshots"), std::string::npos) << out;
    EXPECT_TRUE(fs::is_empty(dir_)) << "--snapshots " << count;
  }
  std::string out;
  ASSERT_EQ(run_cmd({"generate", "--out", dir_.string(), "--cycle", "50",
                     "--small", "--snapshots", "1"},
                    &out),
            0)
      << out;
  EXPECT_EQ(snapshot_files().size(), 1u);
}

TEST_F(CliPipeline, DataErrorsExitThree) {
  std::string out;
  EXPECT_EQ(run_cmd({"stats", (dir_ / "missing.mump").string()}, &out),
            kExitFatal);
  const fs::path bogus = dir_ / "bogus.mump";
  std::ofstream(bogus) << "not a snapshot";
  EXPECT_EQ(run_cmd({"stats", bogus.string()}, &out), kExitFatal);
  // Tolerant mode cannot save a file that is not a container at all.
  EXPECT_EQ(run_cmd({"stats", "--tolerant", bogus.string()}, &out),
            kExitFatal);
}

TEST_F(CliPipeline, TolerantSalvagesTruncatedSnapshot) {
  std::string out;
  ASSERT_EQ(run_cmd({"generate", "--out", dir_.string(), "--cycle", "50",
                     "--small", "--snapshots", "1"},
                    &out),
            kExitOk)
      << out;
  const auto files = snapshot_files();
  ASSERT_EQ(files.size(), 1u);

  // Chop the tail off the file: the last sections now overrun it.
  std::string bytes;
  {
    std::ifstream is(files[0], std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    bytes = ss.str();
  }
  ASSERT_GT(bytes.size(), 64u);
  const fs::path cut = dir_ / "cut.mump";
  std::ofstream(cut, std::ios::binary)
      << bytes.substr(0, bytes.size() - 40);

  // Strict (default) refuses; tolerant salvages and reports what it skipped.
  EXPECT_EQ(run_cmd({"stats", cut.string()}, &out), kExitFatal);
  EXPECT_EQ(run_cmd({"stats", "--tolerant", cut.string()}, &out), kExitOk);
  EXPECT_NE(out.find("salvaged"), std::string::npos);
}

TEST_F(CliPipeline, CampaignExitCodesAndManifest) {
  std::string out;
  // A clean small campaign: every cycle computes, exit 0.
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "2", "--quiet"},
                    &out),
            kExitOk)
      << out;

  // Injected failure on every cycle: contained, but the run is partial.
  std::string json;
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "2", "--keep-going",
                     "--chaos", "fail=1", "--json", "--quiet"},
                    &json),
            kExitPartial);
  EXPECT_NE(json.find("\"manifest\""), std::string::npos);
  EXPECT_NE(json.find("\"failed\":2"), std::string::npos);
  EXPECT_NE(json.find("injected failure"), std::string::npos);
}

TEST_F(CliPipeline, CampaignAbortedExitCode) {
  // Fail-fast (no --keep-going) on a guaranteed failure: remaining cycles
  // are skipped, which is an abort (5), not a mere partial (2).
  std::string json;
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "3", "--chaos",
                     "fail=1", "--json", "--quiet"},
                    &json),
            kExitAborted);
  EXPECT_NE(json.find("\"skipped\":"), std::string::npos);
}

TEST_F(CliPipeline, CampaignDegradedExitCode) {
  // Persistent disk-full: the report completes but checkpoint persistence
  // is dropped — degraded-complete (4), and the manifest says why.
  const std::string ckpt = (dir_ / "ck_enospc").string();
  std::string json;
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "4", "--quiet",
                     "--checkpoints", ckpt, "--chaos", "io.enospc=1",
                     "--json"},
                    &json),
            kExitDegraded);
  EXPECT_NE(json.find("\"complete\":true"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(json.find("\"checkpoints_degraded\":true"), std::string::npos);
  EXPECT_NE(json.find("persistent enospc"), std::string::npos);
}

TEST_F(CliPipeline, CampaignUnwritableManifestExitsDegraded) {
  // A directory holds manifest.json's name: the report is complete, but the
  // run's record is lost — degraded-complete (4), never a silent 0.
  const fs::path ckpt = dir_ / "ck_blocked";
  const fs::path manifest = ckpt / "manifest.json";
  fs::create_directories(manifest);
  std::string out;
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "2", "--quiet",
                     "--checkpoints", ckpt.string()},
                    &out),
            kExitDegraded)
      << out;
  EXPECT_NE(out.find("cannot write " + manifest.string()), std::string::npos)
      << out;

  // The telemetry file takes the same path: reported, degraded.
  const fs::path telemetry = dir_ / "telemetry_dir";
  fs::create_directories(telemetry);
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "1", "--quiet",
                     "--telemetry=" + telemetry.string()},
                    &out),
            kExitDegraded)
      << out;
  EXPECT_NE(out.find("cannot write " + telemetry.string()), std::string::npos)
      << out;

  // An incomplete run keeps its own code: partial (2), not degraded.
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "2", "--quiet",
                     "--keep-going", "--chaos", "fail=1", "--checkpoints",
                     ckpt.string()},
                    &out),
            kExitPartial)
      << out;
  EXPECT_NE(out.find("cannot write " + manifest.string()), std::string::npos)
      << out;
}

TEST_F(CliPipeline, CampaignSupervisionFlags) {
  // --retry and --cycle-deadline parse and validate.
  std::string out;
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "1", "--quiet",
                     "--retry", "2", "--cycle-deadline", "60000"},
                    &out),
            kExitOk)
      << out;
  EXPECT_EQ(run_cmd({"campaign", "--retry", "-1"}, &out), kExitUsage);
  EXPECT_EQ(run_cmd({"campaign", "--cycle-deadline", "-5"}, &out),
            kExitUsage);
  EXPECT_EQ(run_cmd({"campaign", "--chaos", "io.bogus=1"}, &out),
            kExitUsage);
  EXPECT_NE(out.find("unknown fault"), std::string::npos);
  // A hopeless deadline with slow io: every cycle times out; cycles were
  // attempted (none skipped), so the run is partial, not aborted.
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "1", "--quiet",
                     "--keep-going", "--checkpoints",
                     (dir_ / "ck_slow").string(), "--chaos",
                     "io.slow=1,io.slow_ms=200", "--cycle-deadline", "1",
                     "--json"},
                    &out),
            kExitPartial);
  EXPECT_NE(out.find("\"timed_out\":1"), std::string::npos);
}

TEST_F(CliPipeline, CampaignIoChaosKeepsReportBytes) {
  // Same seed, io chaos on/off: stdout (the science) must be identical;
  // only the exit code and manifest reflect the weather.
  std::string clean;
  ASSERT_EQ(run_cmd({"campaign", "--small", "--cycles", "3", "--quiet"},
                    &clean),
            kExitOk);
  std::string stormy;
  const int code = run_cmd(
      {"campaign", "--small", "--cycles", "3", "--quiet", "--retry", "2",
       "--checkpoints", (dir_ / "ck_io").string(), "--checkpoint-data",
       "--chaos", "io.all=2%"},
      &stormy);
  EXPECT_TRUE(code == kExitOk || code == kExitDegraded) << code;
  // run_cmd concatenates out+err; --quiet keeps err to warnings only, so
  // compare the table prefix (stdout comes first).
  EXPECT_EQ(stormy.substr(0, clean.size()), clean);
}

TEST(Usage, DocumentsSupervision) {
  const std::string text = usage();
  EXPECT_NE(text.find("--retry"), std::string::npos);
  EXPECT_NE(text.find("--cycle-deadline"), std::string::npos);
  EXPECT_NE(text.find("io.eio"), std::string::npos);
  EXPECT_NE(text.find("io.kill_at"), std::string::npos);
  EXPECT_NE(text.find("4 degraded-complete"), std::string::npos);
  EXPECT_NE(text.find("5 aborted"), std::string::npos);
}

}  // namespace
}  // namespace mum::cli
