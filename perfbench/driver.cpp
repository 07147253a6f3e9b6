// mpabench: the measured half of the MPA end-to-end benchmark.
//
//   mpabench prepare --workload W --seed S --dir D
//       Generate W's dataset under D and the 1-thread reference digests
//       every run is checked against. Prints {"setup_s":..,"info":{..}}.
//   mpabench run --workload W --seed S --dir D --seconds T --trace 0|1
//       Measure W over D for about T seconds. Prints one JSON object:
//       correct/attempted/failed, the metrics, and run info.
//
// perfbench/run.py builds this program, runs both steps in separate
// processes and prints the benchmark's result line.
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <set>
#include <thread>

#include "io/columnar.hpp"
#include "simulation/osp_generator.hpp"
#include "traced.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mpa;
namespace fs = std::filesystem;

namespace {

constexpr ModelKind kModel = ModelKind::kDtBoostOversample;

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double dir_bytes(const std::string& dir) {
  double total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += static_cast<double>(e.file_size());
  return total;
}

/// Cap on the generator's long-tailed network size, for every workload.
constexpr int kMaxDevices = 40;

/// Log snapshot bytes per generated network at quantiles kQuantile,
/// measured over 3000 networks of 12 months with at most kMaxDevices
/// devices (the shape every workload uses).
constexpr double kQuantile[] = {0.01, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50,
                                0.60, 0.70, 0.80, 0.90, 0.95, 0.98};
constexpr double kLogBytes[] = {9.92,  10.67, 11.09, 11.58, 11.98, 12.35, 12.65,
                                13.02, 13.37, 13.81, 14.36, 14.89, 15.55};

double target_log_bytes(double q) {
  constexpr std::size_t n = std::size(kQuantile);
  q = std::clamp(q, kQuantile[0], kQuantile[n - 1]);
  std::size_t i = 1;
  while (i + 1 < n && kQuantile[i] < q) ++i;
  const double f = (q - kQuantile[i - 1]) / (kQuantile[i] - kQuantile[i - 1]);
  return kLogBytes[i - 1] + f * (kLogBytes[i] - kLogBytes[i - 1]);
}

/// Generate kPoolFactor * n networks from the seed and keep n of them:
/// for each quantile (k + 0.5) / n of the generator's size distribution
/// (clamped to [0.01, 0.98]), the unused network whose snapshot bytes
/// are closest to it. The generator's sizes are heavy-tailed (devices,
/// VLANs and change rates are lognormal; one network in a few thousand
/// carries 60 MB of snapshots), so a plain n-network draw varies
/// several-fold in work from seed to seed. The matched draw keeps the
/// spread of sizes, small networks and large ones alike, while the
/// total stays nearly seed-independent. Kept networks stay in
/// inventory order.
constexpr int kPoolFactor = 3;
DiskDataset generate_stratified(OspOptions g, int n) {
  g.num_networks = kPoolFactor * n;
  const OspDataset pool = generate_osp(g);
  const auto& nets = pool.inventory.networks();
  std::vector<double> log_bytes;
  for (const auto& net : nets) {
    double bytes = 1;
    for (const auto& dev : net.device_ids)
      for (const auto& s : pool.snapshots.for_device(dev))
        bytes += static_cast<double>(s.text.size());
    log_bytes.push_back(std::log(bytes));
  }
  std::vector<bool> used(nets.size(), false);
  std::vector<std::size_t> keep;
  for (int k = n - 1; k >= 0; --k) {
    const double target = target_log_bytes((k + 0.5) / n);
    std::size_t best = nets.size();
    for (std::size_t i = 0; i < nets.size(); ++i)
      if (!used[i] && (best == nets.size() ||
                       std::abs(log_bytes[i] - target) < std::abs(log_bytes[best] - target)))
        best = i;
    used[best] = true;
    keep.push_back(best);
  }
  std::sort(keep.begin(), keep.end());
  DiskDataset out;
  std::set<std::string> kept_networks;
  for (std::size_t i : keep) {
    out.inventory.add_network(nets[i]);
    kept_networks.insert(nets[i].network_id);
  }
  for (const DeviceRecord& dev : pool.inventory.devices()) {
    if (kept_networks.count(dev.network_id) == 0) continue;
    out.inventory.add_device(dev);
    for (const auto& s : pool.snapshots.for_device(dev.device_id)) out.snapshots.add(s);
  }
  for (const Ticket& t : pool.tickets.all())
    if (kept_networks.count(t.network_id) != 0) out.tickets.add(t);
  return out;
}

/// Write `data` to `out` `reps` times with `save` (the last write
/// stays); returns the median write time.
template <typename Save>
double save_timed(int reps, const std::string& out, Save&& save) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    fs::remove_all(out);
    const double t0 = now_s();
    save(out);
    times.push_back(now_s() - t0);
  }
  return median(times);
}

void add_shape_info(const Shape& sh, const DiskDataset& d, const std::string& dir,
                    std::map<std::string, std::string>& info) {
  info["networks"] = std::to_string(d.inventory.num_networks());
  info["devices"] = std::to_string(d.inventory.num_devices());
  info["snapshots"] = std::to_string(d.snapshots.total_snapshots());
  info["tickets"] = std::to_string(d.tickets.size());
  info["months"] = std::to_string(sh.months);
  info["dataset_bytes"] = std::to_string(static_cast<std::uint64_t>(dir_bytes(dir)));
}

// ------------------------------------------------------------ cold_pipeline

/// The traced cold_pipeline: an untraced serial pass, the same pass
/// with every layer call timed, the pooled case table for scaling, then
/// the io layer's mpac path over the same dataset.
void trace_cold_pipeline(const std::string& ds, const std::string& mpac, const Shape& sh,
                         const Ref& ref, Result& r) {
  NumberMap& m = r.metrics;
  init_per_layer(m);
  const std::vector<Practice> practices = causal_practices();

  double serial_infer_s = 0, untraced_s = 0;
  InferenceOptions io;
  malloc_trim(0);  // the untraced pass starts from a trimmed heap, like Pass
  const double u0 = now_s();
  {
    SessionOptions so;
    so.threads = 1;
    AnalysisSession s = AnalysisSession::from_directory(ds, so);
    const double t0 = now_s();
    s.case_table();
    serial_infer_s = now_s() - t0;
    s.lint();
    s.dependence();
    for (Practice p : practices) s.causal(p);
    s.evaluate_cv(2, kModel);
    s.evaluate_cv(5, kModel);
    io.num_months = s.num_months();
    s.online_accuracy(2, 3, kModel, std::min(io.num_months - 1, 3), io.num_months - 1);
    untraced_s = now_s() - u0;  // before the data is freed: the traced pass keeps its own
  }

  Pass pass(m);
  std::uint64_t bytes = 0;
  DiskDataset d = pass.time("io", "io.load_s", [&] { return load_dataset(ds, &bytes); });
  m.set("io.bytes_in", static_cast<double>(bytes));
  pass.rss("open");
  LayerTrace trace;
  const double ti0 = now_s();
  const CaseTable table = traced_infer(d.inventory, d.snapshots, d.tickets, io, 0, trace);
  const double infer_wall = now_s() - ti0 - trace.bookkeeping_s;
  m.set("metrics.unattributed_frac", (infer_wall - trace.self_s()) / infer_wall);
  add_trace_ratios(trace, m);
  set_network_skew(trace, m);
  pass.add_trace(trace);
  pass.rss("case_table");
  const LintReport lint = traced_lint(d.inventory, d.snapshots, io.lint, trace);
  pass.add_trace(trace);
  pass.rss("lint");
  const DependenceAnalysis dep =
      pass.time("mpa", "mpa.dependence_s", [&] { return DependenceAnalysis(table); });
  pass.time("mpa", "mpa.causal_s", [&] {
    for (Practice p : practices) causal_analysis(table, p);
  });
  pass.rss("dependence");
  Rng rng(1);
  pass.time("learn", "learn.cv_s", [&] {
    evaluate_model_cv(table, 2, kModel, rng);
    return evaluate_model_cv(table, 5, kModel, rng);
  });
  pass.time("learn", "learn.online_s", [&] {
    return online_prediction_accuracy(table, 2, 3, kModel, rng, std::min(io.num_months - 1, 3),
                                      io.num_months - 1);
  });
  pass.rss("learn");
  pass.finish(untraced_s);
  r.op(digest(table.to_csv()) == ref.at("case_table"));
  r.op(digest(lint.to_json()) == ref.at("lint"));
  r.op(digest(ranking_text(dep)) == ref.at("rank"));

  // Pool scaling: the session's pooled case table against the serial
  // one, median of three fresh sessions.
  std::vector<double> pooled_s, queue_wait_s;
  for (int k = 0; k < 3; ++k) {
    SessionOptions so;
    so.threads = sh.threads;
    AnalysisSession s = AnalysisSession::from_directory(ds, so);
    const double tp = now_s();
    const CaseTable& pooled = s.case_table();
    pooled_s.push_back(now_s() - tp);
    queue_wait_s.push_back(static_cast<double>(s.pool().stats().queue_wait_ns) * 1e-9);
    r.op(digest(pooled.to_csv()) == ref.at("case_table"));
  }
  m.set("metrics.infer_s", median(pooled_s));
  m.set("metrics.case_table_serial_s", serial_infer_s);
  m.set("pool.speedup", serial_infer_s / median(pooled_s));
  m.set("pool.queue_wait_s", median(queue_wait_s));

  // The mpac columnar form of the same dataset: map and verify, then
  // materialize the records a session opens over (outside the pass).
  const double tm = now_s();
  const ColumnarDataset c = load_columnar(mpac);
  const double tc = now_s();
  const DiskDataset from_mpac = c.to_disk_dataset();
  m.set("io.mpac_load_s", tc - tm);
  m.set("io.materialize_s", now_s() - tc);
  r.op(from_mpac.inventory.num_devices() == d.inventory.num_devices() &&
       from_mpac.snapshots.total_snapshots() == d.snapshots.total_snapshots() &&
       from_mpac.tickets.size() == d.tickets.size());
}

}  // namespace

// ------------------------------------------------------------------ shared

Shape shape_of(const std::string& workload) {
  Shape s;
  if (workload == "cold_pipeline") {
    s.networks = 80;
    s.months = 12;
    s.threads = hardware_threads();
    s.setup_reps = 7;
  } else if (workload == "serve_mixed") {
    s.networks = 80;
    s.months = 12;
    s.first_delta = 9;
    s.threads = 2;
    s.workers = 2;
    s.setup_reps = 1;
  } else {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  return s;
}

std::vector<Practice> causal_practices() {
  return {Practice::kNumDevices, Practice::kNumModels, Practice::kIntraDeviceComplexity,
          Practice::kNumChangeEvents, Practice::kFracEventsMbox};
}

std::string ranking_text(const DependenceAnalysis& dep) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& pm : dep.mi_ranking())
    os << practice_name(pm.practice) << '\t' << pm.avg_monthly_mi << '\n';
  for (const auto& pc : dep.cmi_ranking())
    os << practice_name(pc.a) << '\t' << practice_name(pc.b) << '\t' << pc.avg_monthly_cmi << '\n';
  return os.str();
}

void write_ref(const std::string& dir, const Ref& ref) {
  std::ofstream f(dir + "/ref.txt");
  for (const auto& [k, v] : ref) f << k << ' ' << v << '\n';
}

Ref read_ref(const std::string& dir) {
  Ref ref;
  std::ifstream f(dir + "/ref.txt");
  std::string k, v;
  while (f >> k >> v) ref[k] = v;
  if (ref.empty())
    throw std::runtime_error("no reference digests in " + dir + "; run prepare first");
  return ref;
}

void init_per_layer(NumberMap& m) {
  for (const std::string& name : per_layer_names()) m.set(name, 0);
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "io.load_s", "io.mpac_load_s", "io.materialize_s", "io.bytes_in", "mem.rss_anon_mb.open",
      "config.parse_s", "config.parse_calls", "config.scan_s", "config.diff_s",
      "config.diff_calls", "config.lint_s", "config.distinct_stanza_ratio",
      "config.diff_changed_ratio", "metrics.state_s", "metrics.design_s", "metrics.events_s",
      "metrics.tickets_s", "metrics.infer_s", "metrics.case_table_serial_s",
      "metrics.unattributed_frac", "metrics.network_skew", "pool.speedup", "pool.queue_wait_s",
      "mpa.dependence_s", "mpa.causal_s", "learn.cv_s", "learn.online_s", "engine.open_s",
      "engine.append_s", "engine.ingest_s", "engine.memo_hit_ratio",
      "mem.rss_anon_mb.case_table", "mem.rss_anon_mb.lint", "mem.rss_anon_mb.dependence",
      "mem.rss_anon_mb.learn", "mem.rss_anon_mb.ingest", "serve.queue_ms.p50",
      "serve.queue_ms.tail", "serve.tail_ms", "serve.ingest_p50_ms",
      "serve.render_ms.case_table", "serve.render_ms.rank", "serve.render_ms.causal",
      "serve.render_ms.lint", "serve.render_ms.predict", "serve.render_ms.ingest",
      "serve.codec_us", "serve.generator_lag_ms", "serve.rejected", "serve.deadline",
      "serve.errors", "serve.max_rps", "layer.io_s", "layer.config_s", "layer.metrics_s",
      "layer.mpa_s",
      "layer.learn_s", "layer.engine_s", "obs.traced_wall_s",
      "obs.unattributed_frac", "obs.trace_overhead_frac"};
  return names;
}

std::string Result::to_json() const {
  std::ostringstream os;
  os << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
     << ",\"failed\":" << failed << ",\"metrics\":" << metrics.to_json()
     << ",\"info\":" << string_map_json(info) << '}';
  return os.str();
}

// ------------------------------------------------------------------ prepare

int prepare(const Options& o) {
  const Shape sh = shape_of(o.workload);
  fs::create_directories(o.dir);
  OspOptions g;
  g.num_networks = sh.networks;
  g.num_months = sh.months;
  g.seed = o.seed;
  g.design.max_devices = kMaxDevices;
  Ref ref;
  std::map<std::string, std::string> info;
  SessionOptions one;
  one.threads = 1;
  // Generating and sampling the networks is the benchmark's own work
  // and untimed; setup_s is the program's share of set-up, writing the
  // dataset in the form the run opens.
  const DiskDataset data = generate_stratified(g, sh.networks);
  double setup_s = 0;

  if (o.workload == "cold_pipeline") {
    const std::string ds = o.dir + "/ds";
    setup_s =
        save_timed(sh.setup_reps, ds, [&](const std::string& out) { save_dataset(data, out); });
    save_columnar(data, o.dir + "/mpac");  // read by the traced run's io layer
    AnalysisSession s = AnalysisSession::from_directory(ds, one);
    ref["case_table"] = digest(s.case_table().to_csv());
    ref["lint"] = digest(s.lint().to_json());
    ref["rank"] = digest(ranking_text(s.dependence()));
    add_shape_info(sh, data, ds, info);
  } else {
    const std::string full = o.dir + "/full";
    setup_s =
        save_timed(sh.setup_reps, full, [&](const std::string& out) { save_dataset(data, out); });
    const SplitDataset split = split_dataset(data, sh.first_delta);
    save_dataset(split.base, o.dir + "/base");
    for (const MonthDelta& d : split.deltas)
      save_month_delta(d, o.dir + "/delta-" + std::to_string(d.month));
    ref["deltas"] = std::to_string(split.deltas.size());
    AnalysisSession s = AnalysisSession::from_directory(full, one);
    ref["case_table"] = digest(s.case_table().to_csv());
    ref["rank"] = digest(ranking_text(s.dependence()));
    add_shape_info(sh, data, full, info);
  }
  write_ref(o.dir, ref);
  info["seed"] = std::to_string(o.seed);
  std::ostringstream os;
  os.precision(17);
  os << "{\"setup_s\":" << setup_s << ",\"info\":" << string_map_json(info) << '}';
  std::cout << os.str() << std::endl;
  return 0;
}

// -------------------------------------------------------------- batch runs

/// One cold_pipeline iteration, as its process reports it.
struct Iteration {
  double open_s = 0;   ///< Dataset directory -> open session.
  double infer_s = 0;  ///< Dataset directory -> case table.
  double wall_s = 0;   ///< Dataset directory -> last artifact.
  double peak_rss_mb = 0;
  bool ok = false;  ///< Case table, lint report and rankings equal the reference.
};

/// Run `fn` in a forked child process and return what it measured, so
/// each iteration is a fresh process, as a CLI run is: its VmHWM is that
/// one pipeline's peak and its heap starts empty. The caller must have
/// no threads of its own. Throws when the child fails.
template <typename Fn>
Iteration in_child(Fn&& fn) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      Iteration it = fn();
      it.peak_rss_mb = proc_status_mb("VmHWM");
      code = write(fds[1], &it, sizeof it) == static_cast<ssize_t>(sizeof it) ? 0 : 1;
    } catch (const std::exception& e) {
      std::cerr << "mpabench: " << e.what() << "\n";
    }
    _exit(code);
  }
  close(fds[1]);
  Iteration it;
  const ssize_t n = read(fds[0], &it, sizeof it);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (n != static_cast<ssize_t>(sizeof it) || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("cold_pipeline iteration process failed");
  return it;
}

Result run_cold_pipeline(const Options& o) {
  const Shape sh = shape_of(o.workload);
  const Ref ref = read_ref(o.dir);
  const std::string ds = o.dir + "/ds";
  Result r;
  r.info["threads"] = std::to_string(sh.threads);
  if (o.trace) {
    trace_cold_pipeline(ds, o.dir + "/mpac", sh, ref, r);
    return r;
  }
  SessionOptions so;
  so.threads = sh.threads;
  // A pipeline's peak RSS depends on which networks the pool's threads
  // hold at once, so it is the median over the iterations' processes.
  std::vector<double> open_s, infer_s, wall_s, peak_rss_mb;
  const double start = now_s();
  while (wall_s.size() < 3 || now_s() - start < o.seconds) {
    const Iteration it = in_child([&] {
      Iteration out;
      const double t0 = now_s();
      AnalysisSession s = AnalysisSession::from_directory(ds, so);
      const double t1 = now_s();
      const CaseTable& table = s.case_table();
      const double t2 = now_s();
      const LintReport& lint = s.lint();
      const DependenceAnalysis& dep = s.dependence();
      for (Practice p : causal_practices()) s.causal(p);
      s.evaluate_cv(2, kModel);
      s.evaluate_cv(5, kModel);
      const int months = s.num_months();
      s.online_accuracy(2, 3, kModel, std::min(months - 1, 3), months - 1);
      const double t3 = now_s();
      out.ok = digest(table.to_csv()) == ref.at("case_table") &&
               digest(lint.to_json()) == ref.at("lint") &&
               digest(ranking_text(dep)) == ref.at("rank");
      out.open_s = t1 - t0;
      out.infer_s = t2 - t0;
      out.wall_s = t3 - t0;
      return out;
    });
    r.op(it.ok);
    open_s.push_back(it.open_s);
    infer_s.push_back(it.infer_s);
    wall_s.push_back(it.wall_s);
    peak_rss_mb.push_back(it.peak_rss_mb);
  }
  double busy = 0;
  for (double w : wall_s) busy += w;
  r.metrics.set("open_s", median(open_s));
  r.metrics.set("op_latency_ms", interquartile_mean(wall_s) * 1e3);
  r.metrics.set("ops_per_s", static_cast<double>(r.attempted - r.failed) / busy);
  r.metrics.set("peak_rss_mb", median(peak_rss_mb));
  r.info["infer_s"] = std::to_string(median(infer_s));
  r.info["iterations"] = std::to_string(wall_s.size());
  return r;
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: mpabench prepare|run --workload W --dir D [--seed S] [--seconds T] "
               "[--trace 0|1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  Options o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--dir") o.dir = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else return usage();
  }
  if (o.workload.empty() || o.dir.empty()) return usage();
  try {
    if (mode == "prepare") return prepare(o);
    if (mode != "run") return usage();
    Result r;
    if (o.workload == "cold_pipeline") r = run_cold_pipeline(o);
    else if (o.workload == "serve_mixed") r = run_serve_mixed(o);
    else return usage();
    std::cout << r.to_json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mpabench: " << e.what() << "\n";
    return 1;
  }
}
