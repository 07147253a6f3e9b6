// End-to-end tests for the mpa_cli binary (tools/mpa_cli.cpp), run as
// a subprocess via the MPA_CLI_PATH compile definition. Pins the
// observability round trip (run → --log-out/--chrome-trace-out/
// --manifest-out → report / trace summarize) and the failure-path
// contract: export files are written even when a subcommand exits
// 1, 2, or 3.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "case_dir.hpp"
#include "util/json.hpp"

namespace mpa {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string out;
};

CliResult run_command(const std::string& cmd) {
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  CliResult res;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) res.out.append(buf, n);
  const int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

CliResult run_cli(const std::string& args) {
  return run_command(std::string(MPA_CLI_PATH) + " " + args + " 2>/dev/null");
}

/// Like run_cli, but merges stderr into the captured output (for
/// asserting on error messages).
CliResult run_cli_merged(const std::string& args) {
  return run_command(std::string(MPA_CLI_PATH) + " " + args + " 2>&1");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

/// One small shared dataset, read-only for every case. Under ctest the
/// cli_dataset fixture generates it once before any case runs (which
/// also smoke-tests `generate`); a direct run of the test binary
/// generates it into the first case's own directory.
const std::string& dataset_dir() {
  static const std::string dir = [] {
    if (file_exists(std::string(MPA_CLI_TEST_DATASET) + "/tickets.csv"))
      return std::string(MPA_CLI_TEST_DATASET);
    const std::string d = case_dir() + "ds";
    const CliResult gen = run_cli("generate " + d + " --networks 6 --months 3 --seed 5");
    EXPECT_EQ(gen.exit_code, 0) << gen.out;
    return d;
  }();
  return dir;
}

TEST(Cli, ObservabilityRoundTrip) {
  const std::string tmp = case_dir();
  const std::string manifest = tmp + "cli_manifest.json";
  const std::string log = tmp + "cli_log.jsonl";
  const std::string chrome = tmp + "cli_chrome.json";
  const std::string spans = tmp + "cli_spans.json";

  const CliResult run =
      run_cli("infer " + dataset_dir() + " --out /dev/null --manifest-out " + manifest +
              " --log-out " + log + " --log-level debug --chrome-trace-out " + chrome +
              " --trace-out " + spans);
  ASSERT_EQ(run.exit_code, 0) << run.out;

  // Manifest: valid JSON with the run's provenance, and `report`
  // renders it both ways.
  const JsonValue doc = parse_json(slurp(manifest));
  EXPECT_EQ(doc.at("networks").as_u64(), 6u);
  EXPECT_EQ(doc.at("stages").as_array().size(), 1u);
  EXPECT_EQ(doc.at("stages").as_array()[0].at("source").as_string(), "computed");
  const CliResult text = run_cli("report " + manifest);
  EXPECT_EQ(text.exit_code, 0);
  EXPECT_NE(text.out.find("run manifest"), std::string::npos);
  EXPECT_NE(text.out.find("case_table"), std::string::npos);
  const CliResult json = run_cli("report " + manifest + " --format json");
  EXPECT_EQ(json.exit_code, 0);
  EXPECT_EQ(parse_json(json.out).at("dataset_fingerprint").as_string(),
            doc.at("dataset_fingerprint").as_string());

  // Event log: one JSON object per line, session lifecycle present.
  const std::string jsonl = slurp(log);
  EXPECT_NE(jsonl.find("\"name\":\"session_open\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"session_close\""), std::string::npos);
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    const JsonValue rec = parse_json(line);
    EXPECT_NE(rec.find("t_ns"), nullptr);
    EXPECT_NE(rec.find("level"), nullptr);
    EXPECT_NE(rec.find("name"), nullptr);
    EXPECT_NE(rec.find("fields"), nullptr);
  }

  // Both trace shapes summarize to the same per-path tree.
  const CliResult sum_spans = run_cli("trace summarize " + spans);
  const CliResult sum_chrome = run_cli("trace summarize " + chrome);
  EXPECT_EQ(sum_spans.exit_code, 0);
  EXPECT_EQ(sum_chrome.exit_code, 0);
  EXPECT_EQ(sum_chrome.out, sum_spans.out);
  EXPECT_NE(sum_spans.out.find("infer"), std::string::npos);
  EXPECT_NE(sum_spans.out.find("case_table"), std::string::npos);
}

TEST(Cli, FailedRunStillWritesExports) {
  const std::string tmp = case_dir();
  const std::string metrics = tmp + "cli_fail_metrics.json";
  const std::string log = tmp + "cli_fail_log.jsonl";
  const std::string spans = tmp + "cli_fail_spans.json";

  // Exit 1: unknown practice (DataError mid-command).
  const CliResult bad = run_cli("causal " + dataset_dir() +
                                " --practice no_such_practice --metrics-out " + metrics +
                                " --log-out " + log + " --trace-out " + spans);
  EXPECT_EQ(bad.exit_code, 1);
  ASSERT_TRUE(file_exists(metrics));
  ASSERT_TRUE(file_exists(log));
  ASSERT_TRUE(file_exists(spans));
  EXPECT_NE(parse_json(slurp(metrics)).find("counters"), nullptr);

  // Exit 2: usage error discovered inside the subcommand.
  const std::string metrics2 = tmp + "cli_fail2_metrics.json";
  const CliResult usage = run_cli("causal " + dataset_dir() + " --metrics-out " + metrics2);
  EXPECT_EQ(usage.exit_code, 2);
  EXPECT_TRUE(file_exists(metrics2));
}

TEST(Cli, LintFailOnGateWritesExports) {
  const std::string metrics = case_dir() + "cli_lint_metrics.json";
  const CliResult lint = run_cli("lint " + dataset_dir() + " --fail-on info --metrics-out " +
                                 metrics + " --out /dev/null");
  // Exit 3 when the generated configs carry any finding, 0 otherwise;
  // the export contract holds either way.
  EXPECT_TRUE(lint.exit_code == 0 || lint.exit_code == 3) << lint.exit_code;
  EXPECT_TRUE(file_exists(metrics));
  EXPECT_NE(parse_json(slurp(metrics)).find("counters"), nullptr);
}

// ---- mpac columnar format: generate/convert/verify plumbing ----

TEST(Cli, ConvertRoundTripAndVerify) {
  const std::string tmp = case_dir();
  const std::string mpac = tmp + "cli_mpac_ds";
  const std::string csv2 = tmp + "cli_mpac_back";

  const CliResult conv = run_cli("convert " + dataset_dir() + " --out " + mpac);
  ASSERT_EQ(conv.exit_code, 0) << conv.out;
  EXPECT_NE(conv.out.find("converted csv -> mpac"), std::string::npos) << conv.out;

  const CliResult ver = run_cli("verify " + mpac);
  ASSERT_EQ(ver.exit_code, 0) << ver.out;
  EXPECT_NE(ver.out.find("OK"), std::string::npos) << ver.out;

  const CliResult back = run_cli("convert " + mpac + " --out " + csv2);
  ASSERT_EQ(back.exit_code, 0) << back.out;
  EXPECT_NE(back.out.find("converted mpac -> csv"), std::string::npos) << back.out;
  for (const char* file : {"networks.csv", "devices.csv", "tickets.csv", "snapshots.log"}) {
    EXPECT_EQ(slurp(csv2 + "/" + file), slurp(dataset_dir() + "/" + file)) << file;
  }

  // An analysis subcommand opens the mpac directory transparently.
  const CliResult sum = run_cli("summary " + mpac);
  EXPECT_EQ(sum.exit_code, 0) << sum.out;
}

TEST(Cli, GenerateMpacStreamsIdenticalDataset) {
  const std::string tmp = case_dir();
  const std::string streamed = tmp + "cli_mpac_gen";
  const std::string converted = tmp + "cli_mpac_conv";

  // Same seed through the streaming generator and through batch
  // generate + convert must produce byte-identical shards.
  const CliResult gen =
      run_cli("generate " + streamed + " --networks 6 --months 3 --seed 5 --format mpac");
  ASSERT_EQ(gen.exit_code, 0) << gen.out;
  EXPECT_NE(gen.out.find("mpac shard"), std::string::npos) << gen.out;
  const CliResult conv = run_cli("convert " + dataset_dir() + " --out " + converted);
  ASSERT_EQ(conv.exit_code, 0) << conv.out;
  // EXPECT_TRUE, not EXPECT_EQ: a failure diff over megabytes of
  // binary shard would drown the log (and gtest's line differ).
  EXPECT_TRUE(slurp(streamed + "/shard-00000.mpac") == slurp(converted + "/shard-00000.mpac"))
      << "streamed and converted shard bytes differ";
  EXPECT_EQ(slurp(streamed + "/mpac-manifest.json"), slurp(converted + "/mpac-manifest.json"));
}

TEST(Cli, ConvertVerifyFlagValidation) {
  const std::string tmp = case_dir();
  // Usage errors (exit 2): missing --out, bad format, unknown flag.
  EXPECT_EQ(run_cli("convert " + dataset_dir()).exit_code, 2);
  EXPECT_EQ(run_cli("generate " + tmp + "g --format parquet").exit_code, 2);
  EXPECT_EQ(run_cli("verify " + dataset_dir() + " --bogus 1").exit_code, 2);
  EXPECT_EQ(run_cli("convert " + dataset_dir() + " --out " + tmp + "c --shard-mb 0").exit_code,
            2);
}

TEST(Cli, DatasetPathErrorsNameTheMissingPiece) {
  // Exit 1 with the offending path in the message — not a bare
  // "cannot open" from whichever stream failed first.
  const CliResult missing_dir = run_cli_merged("summary /nonexistent/dataset");
  EXPECT_EQ(missing_dir.exit_code, 1);
  EXPECT_NE(missing_dir.out.find("dataset directory does not exist: /nonexistent/dataset"),
            std::string::npos)
      << missing_dir.out;

  // A directory with one file gone names that file.
  const std::string broken = case_dir() + "cli_broken_ds";
  const CliResult gen = run_cli("generate " + broken + " --networks 2 --months 2 --seed 9");
  ASSERT_EQ(gen.exit_code, 0) << gen.out;
  std::remove((broken + "/tickets.csv").c_str());
  const CliResult missing_file = run_cli_merged("summary " + broken);
  EXPECT_EQ(missing_file.exit_code, 1);
  EXPECT_NE(missing_file.out.find("missing tickets.csv in dataset directory"),
            std::string::npos)
      << missing_file.out;
}

TEST(Cli, ReportRejectsMissingFile) {
  const CliResult res = run_cli("report /nonexistent/manifest.json");
  EXPECT_EQ(res.exit_code, 1);
}

TEST(Cli, UnknownLogLevelIsUsageError) {
  const CliResult res =
      run_cli("summary " + dataset_dir() + " --log-out /dev/null --log-level chatty");
  EXPECT_EQ(res.exit_code, 2);
}

/// Like run_cli, but feeds `input` to the subprocess on stdin.
CliResult run_cli_stdin(const std::string& input, const std::string& args) {
  const std::string infile = case_dir() + "cli_stdin.jsonl";
  {
    std::ofstream f(infile);
    f << input;
  }
  return run_cli(args + " < " + infile);
}

TEST(Cli, ServeAnswersStdinRequests) {
  const CliResult res = run_cli_stdin(
      "{\"id\":1,\"kind\":\"rank\",\"top_k\":3}\n"
      "{\"id\":2,\"kind\":\"case_table\",\"month_from\":0,\"month_to\":1}\n",
      "serve " + dataset_dir() + " --workers 2");
  ASSERT_EQ(res.exit_code, 0) << res.out;
  EXPECT_NE(res.out.find("\"id\":1"), std::string::npos);
  EXPECT_NE(res.out.find("\"id\":2"), std::string::npos);
  EXPECT_NE(res.out.find("\"status\":\"ok\""), std::string::npos);
  // The streamed form carries timing; each line is valid JSON.
  std::istringstream lines(res.out);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_NE(parse_json(line).find("total_ms"), nullptr);
  }
  EXPECT_EQ(count, 2);
}

TEST(Cli, ServeBadRequestLineExitsNonZero) {
  const CliResult res = run_cli_stdin("{\"kind\":\"frobnicate\"}\n",
                                      "serve " + dataset_dir() + " --workers 1");
  EXPECT_EQ(res.exit_code, 1);
}

TEST(Cli, ReplaySingleWorkerResponsesAreByteIdentical) {
  const std::string tmp = case_dir();
  const std::string first = tmp + "cli_replay_r1.jsonl";
  const std::string second = tmp + "cli_replay_r2.jsonl";
  const std::string trace = tmp + "cli_replay_trace.jsonl";
  const std::string report = tmp + "cli_replay_report.json";

  const CliResult a =
      run_cli("replay " + dataset_dir() + " --requests 6 --seed 3 --workers 1 --trace-dump " +
              trace + " --responses-out " + first + " --report-out " + report);
  ASSERT_EQ(a.exit_code, 0) << a.out;
  EXPECT_NE(a.out.find("throughput"), std::string::npos);
  const JsonValue rep = parse_json(slurp(report));
  EXPECT_EQ(rep.at("total").as_u64(), 6u);

  // Replaying the dumped trace reproduces the deterministic responses
  // byte for byte.
  const CliResult b = run_cli("replay " + dataset_dir() + " --workers 1 --trace-in " + trace +
                              " --responses-out " + second);
  ASSERT_EQ(b.exit_code, 0) << b.out;
  const std::string r1 = slurp(first);
  EXPECT_FALSE(r1.empty());
  EXPECT_EQ(r1, slurp(second));
  EXPECT_NE(r1.find("\"status\":\"ok\""), std::string::npos);
}

TEST(Cli, ReplayExportsServeMetrics) {
  const std::string metrics = case_dir() + "cli_replay_metrics.json";
  const CliResult res = run_cli("replay " + dataset_dir() +
                                " --requests 4 --seed 1 --metrics-out " + metrics);
  ASSERT_EQ(res.exit_code, 0) << res.out;
  const JsonValue doc = parse_json(slurp(metrics));
  const JsonValue& counters = doc.at("counters");
  EXPECT_EQ(counters.at("mpa_serve_submitted_total").as_u64(), 4u);
  EXPECT_EQ(counters.at("mpa_serve_completed_total").as_u64(), 4u);
  EXPECT_NE(doc.at("histograms").find("mpa_serve_latency_seconds"), nullptr);
}

TEST(Cli, ServeAnswersIntrospectionAndFlushesWindowExports) {
  const std::string tmp = case_dir();
  const std::string window = tmp + "cli_serve_window.json";
  const std::string canonical = tmp + "cli_serve_window_canonical.json";
  const CliResult res = run_cli_stdin(
      "{\"id\":1,\"kind\":\"rank\",\"top_k\":3}\n"
      "{\"id\":2,\"kind\":\"stats\"}\n"
      "{\"id\":3,\"kind\":\"health\"}\n",
      "serve " + dataset_dir() + " --workers 2 --window-bucket-ms 60000 --window-out " +
          window + " --window-canonical-out " + canonical);
  ASSERT_EQ(res.exit_code, 0) << res.out;

  // Introspection responses are streamed like any other, with JSON
  // bodies: scheduler stats + window + slow log for `stats`, a
  // liveness summary for `health`.
  bool saw_stats = false, saw_health = false;
  std::istringstream lines(res.out);
  std::string line;
  while (std::getline(lines, line)) {
    const JsonValue resp = parse_json(line);
    if (resp.at("kind").as_string() == "stats") {
      saw_stats = true;
      const JsonValue body = parse_json(resp.at("body").as_string());
      EXPECT_GE(body.at("stats").at("submitted").as_u64(), 2u);
      EXPECT_EQ(body.at("stats").at("workers").as_u64(), 2u);
      EXPECT_EQ(body.at("sessions").as_array().size(), 1u);
      EXPECT_TRUE(body.at("window").is_object());  // obs on via --window-out
      EXPECT_NE(body.find("slow"), nullptr);
    } else if (resp.at("kind").as_string() == "health") {
      saw_health = true;
      const JsonValue body = parse_json(resp.at("body").as_string());
      EXPECT_EQ(body.at("status").as_string(), "ok");
      EXPECT_EQ(body.at("sessions").as_u64(), 1u);
    }
  }
  EXPECT_TRUE(saw_stats);
  EXPECT_TRUE(saw_health);

  // EOF flushed the window exports; the executed rank request landed in
  // the 60s bucket, and introspection requests were not recorded.
  const JsonValue snap = parse_json(slurp(window));
  ASSERT_EQ(snap.at("series").as_array().size(), 1u);
  EXPECT_EQ(snap.at("series").as_array()[0].at("kind").as_string(), "rank");
  EXPECT_EQ(snap.at("series").as_array()[0].at("ok").as_u64(), 1u);
  EXPECT_EQ(slurp(canonical),
            "{\"series\":[{\"tenant\":\"default\",\"kind\":\"rank\",\"total\":1,\"ok\":1,"
            "\"rejected\":0,\"deadline_exceeded\":0,\"error\":0}]}\n");
}

TEST(Cli, ServeErrorExitStillFlushesWindowExports) {
  const std::string tmp = case_dir();
  const std::string window = tmp + "cli_serve_err_window.json";
  const std::string metrics = tmp + "cli_serve_err_metrics.json";
  const CliResult res = run_cli_stdin(
      "{\"id\":1,\"kind\":\"rank\",\"top_k\":2}\n"
      "{\"kind\":\"frobnicate\"}\n",
      "serve " + dataset_dir() + " --workers 1 --window-out " + window + " --metrics-out " +
          metrics);
  EXPECT_EQ(res.exit_code, 1);
  // The admitted request drained and both exports landed despite the
  // error exit.
  const JsonValue snap = parse_json(slurp(window));
  ASSERT_EQ(snap.at("series").as_array().size(), 1u);
  EXPECT_EQ(snap.at("series").as_array()[0].at("total").as_u64(), 1u);
  const JsonValue doc = parse_json(slurp(metrics));
  EXPECT_EQ(doc.at("counters").at("mpa_serve_submitted_total").as_u64(), 1u);
}

TEST(Cli, TopRendersStatsResponsesFromStdin) {
  // One interleaved analysis response (skipped) followed by the
  // matching stats response for the id=1 request top emits.
  const std::string input =
      R"({"id":9,"kind":"rank","status":"ok","body":"noise"})" "\n"
      R"({"id":1,"kind":"stats","status":"ok","body":"{\"stats\":{\"submitted\":4,\"admitted\":2,\"rejected\":1,\"completed\":3,\"ok\":2,\"deadline_misses\":0,\"errors\":0,\"introspected\":1,\"queue_depth\":1,\"workers\":2},\"sessions\":[\"main\"],\"window\":null,\"slow\":[]}"})" "\n";
  const std::string infile = case_dir() + "cli_top_stdin.jsonl";
  {
    std::ofstream f(infile);
    f << input;
  }
  const CliResult res =
      run_command(std::string(MPA_CLI_PATH) + " top --iterations 1 < " + infile + " 2>&1");
  ASSERT_EQ(res.exit_code, 0) << res.out;
  // The poll request on stdout and the rendered frame on stderr.
  EXPECT_NE(res.out.find("\"kind\":\"stats\""), std::string::npos);
  EXPECT_NE(res.out.find("-- mpa top (frame 1) --"), std::string::npos);
  EXPECT_NE(res.out.find("submitted 4"), std::string::npos);
  EXPECT_NE(res.out.find("queue_depth 1"), std::string::npos);

  // No response before EOF renders nothing: exit 1.
  EXPECT_EQ(run_cli_stdin("", "top --iterations 1").exit_code, 1);
  // Flag validation.
  EXPECT_EQ(run_cli_stdin("", "top --bogus 1").exit_code, 2);
  EXPECT_EQ(run_cli_stdin("", "top --iterations -1").exit_code, 2);
}

TEST(Cli, ReplaySloReportWritesAttainmentJson) {
  const std::string report = case_dir() + "cli_slo_report.json";
  const CliResult res =
      run_cli("replay " + dataset_dir() +
              " --requests 4 --seed 1 --workers 2 --tenants 2 --slo-ms 60000 --slo-report " +
              report);
  ASSERT_EQ(res.exit_code, 0) << res.out;
  EXPECT_NE(res.out.find("SLO 60000 ms"), std::string::npos);
  const JsonValue doc = parse_json(slurp(report));
  EXPECT_EQ(doc.at("slo_ms").as_number(), 60000.0);
  EXPECT_FALSE(doc.at("saturated").as_bool());  // closed-loop: no offered rate
  std::uint64_t total = 0;
  for (const JsonValue& t : doc.at("tenants").as_array()) {
    EXPECT_FALSE(t.at("tenant").as_string().empty());
    total += t.at("total").as_u64();
    EXPECT_GE(t.at("attainment").as_number(), 0.0);
    EXPECT_LE(t.at("attainment").as_number(), 1.0);
  }
  EXPECT_EQ(total, 4u);
}

TEST(Cli, ReplayLoadSweepReportsSaturationKnee) {
  const std::string report = case_dir() + "cli_slo_sweep.json";
  const CliResult res = run_cli("replay " + dataset_dir() +
                                " --requests 3 --seed 2 --loads 50,100 --slo-ms 60000"
                                " --slo-report " + report);
  ASSERT_EQ(res.exit_code, 0) << res.out;
  EXPECT_NE(res.out.find("-- offered 50 req/s --"), std::string::npos);
  EXPECT_NE(res.out.find("-- offered 100 req/s --"), std::string::npos);
  const JsonValue doc = parse_json(slurp(report));
  ASSERT_EQ(doc.at("loads").as_array().size(), 2u);
  EXPECT_EQ(doc.at("loads").as_array()[0].at("offered_rps").as_number(), 50.0);
  EXPECT_NE(doc.find("saturation_rps"), nullptr);

  // --loads requires --slo-ms; loads must be positive rates.
  EXPECT_EQ(run_cli("replay " + dataset_dir() + " --loads 10").exit_code, 2);
  EXPECT_EQ(run_cli("replay " + dataset_dir() + " --loads 0 --slo-ms 10").exit_code, 2);
  EXPECT_EQ(run_cli("replay " + dataset_dir() + " --loads ten --slo-ms 10").exit_code, 2);
}

TEST(Cli, ServeReplayFlagValidation) {
  // Unknown flags are rejected with usage (exit 2), per-command.
  EXPECT_EQ(run_cli("serve " + dataset_dir() + " --requests 5").exit_code, 2);
  EXPECT_EQ(run_cli("replay " + dataset_dir() + " --bogus 1").exit_code, 2);
  // Out-of-range values.
  EXPECT_EQ(run_cli("replay " + dataset_dir() + " --workers 0").exit_code, 2);
  EXPECT_EQ(run_cli("replay " + dataset_dir() + " --requests 0").exit_code, 2);
  EXPECT_EQ(run_cli("replay " + dataset_dir() + " --interval-ms -1").exit_code, 2);
  EXPECT_EQ(run_cli("serve " + dataset_dir() + " --deadline-ms -5").exit_code, 2);
  // Non-numeric value for a numeric flag.
  EXPECT_EQ(run_cli("replay " + dataset_dir() + " --seed lots").exit_code, 2);
  // Missing trace file is a data error (exit 1), not a usage error.
  EXPECT_EQ(run_cli("replay " + dataset_dir() + " --trace-in /nonexistent.jsonl").exit_code, 1);
}

}  // namespace
}  // namespace mpa
