// serve_mixed: an in-process AnalysisServer driven through the daemon's
// per-line calls (parse_json -> Request::from_json -> submit, and
// Response::to_json in the response tap). Read tenants send the default
// interactive mix; one more tenant ingests the held-back month deltas.
//
// Phases: open loop at the nominal rate with the ingests beside the
// reads; then, in untraced runs, closed-loop cycles at steady state
// until the run's end (one read in flight: latency; kOutstanding in
// flight: saturated throughput; a fresh set-up beside the server), and
// in traced runs the offered-rate ladder. Every phase starts from the
// same warmed state: a fresh server opens the base dataset and warms
// case_table, lint and dependence, and that is the set-up time. The
// host's speed drifts over seconds, so the untraced samples of every
// metric are spread over the whole run. Every statistic is computed
// exactly from per-request timestamps, not from histogram buckets.
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "traced.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mpa;
using namespace mpa::serve;

namespace {

/// Offered-rate ladder: 10 * 1.15^k requests/s for k in [0, kRungs).
constexpr int kRungs = 32;
double ladder_rate(int k) { return 10.0 * std::pow(1.15, k); }
/// The nominal rung (26.6 requests/s, about a tenth of the saturated
/// throughput), where latency is reported: low enough that most reads
/// find the session free, so p50 is a service time, not a queue length.
constexpr int kNominalRung = 7;
/// A rung meets the limit when its read tail and its post-window drain
/// both stay at or under this many milliseconds. Every request holds
/// the one session's lock, so a read that arrives during an ingest
/// (about 250 ms at this scale) waits for it; the limit sits above that
/// so the ladder finds the capacity, not the ingest time.
constexpr double kLimitMs = 500;
/// Share of an untraced run spent in the nominal open-loop phase; the
/// steady cycles fill the rest.
constexpr double kNominalShare = 0.25;
/// One steady cycle: a sequential block, a saturated block with this
/// many reads in flight, then a timed set-up beside the server.
constexpr double kSequentialS = 1.0;
constexpr double kSaturatedS = 1.0;
constexpr int kOutstanding = 8;
/// Read lines the steady cycles draw from, in order and wrapping round.
constexpr double kSteadyLines = 4000;
/// Read tenants; the ingest tenant is one more.
constexpr int kReadTenants = 4;
/// The latency tail: the highest percentile with at least 10 reads
/// beyond it at the nominal rung's expected request count.
double tail_quantile(double expected_reads) {
  for (double q : {0.999, 0.99, 0.98, 0.95, 0.9, 0.8})
    if (expected_reads * (1 - q) >= 10) return q;
  return 0.5;
}

struct Slot {
  double due = 0;     ///< Seconds after the window opened.
  double lag = 0;     ///< Submit time minus due time.
  double parse = 0;   ///< parse_json + Request::from_json seconds.
  double done = 0;    ///< Response time, seconds after the window opened.
  double encode = 0;  ///< Response::to_json seconds.
  RequestStatus status = RequestStatus::kOk;
  RequestKind kind = RequestKind::kCaseTable;
  double queue_ms = 0;
  double service_ms = 0;
  bool ingest = false;
};

struct Rung {
  double setup_s = 0;
  double open_s = 0;
  double infer_s = 0;  ///< Warm-up case table (dataset directory -> case table) minus open.
  double drain_ms = 0;
  std::vector<Slot> slots;
  bool final_ok = false;
  double memo_hit_ratio = 0;

  /// A read that failed or was refused misses any latency limit.
  static double latency_ms(const Slot& s) {
    return s.status == RequestStatus::kOk ? (s.done - s.due) * 1e3
                                          : std::numeric_limits<double>::infinity();
  }
  std::vector<double> read_latency_ms() const {
    std::vector<double> v;
    for (const Slot& s : slots)
      if (!s.ingest) v.push_back(latency_ms(s));
    return v;
  }
  std::uint64_t not_ok() const {
    std::uint64_t n = 0;
    for (const Slot& s : slots) n += s.status != RequestStatus::kOk;
    return n;
  }
  bool meets(double tail_q) const {
    return not_ok() == 0 && final_ok && quantile(read_latency_ms(), tail_q) <= kLimitMs &&
           drain_ms <= kLimitMs;
  }
};

/// The ingest tenant's request for one month delta.
std::string ingest_line(const std::string& dir, int month) {
  Request req;
  req.tenant = "ingest";
  req.kind = RequestKind::kIngest;
  req.dir = dir + "/delta-" + std::to_string(month);
  return req.to_json();
}

/// The request lines of one rung's window, in due order: Poisson
/// arrivals at `rps` carrying the default interactive read mix over the
/// read tenants, and the ingest tenant's deltas at fixed points of the
/// window.
///
/// serve::synthesize_trace draws each request's kind independently, so
/// a window of a few hundred reads carries the default weights only
/// approximately. The kinds differ in cost by two orders of magnitude
/// (predict, un-memoized, is the largest share of a saturated phase), so a few
/// reads more of one kind move both the read latency and the saturated
/// throughput. The kinds are therefore dealt in shuffled blocks of the
/// default weights, and each read is the next one of its kind from a
/// synthesize_trace of that kind alone, which keeps the library's
/// tenant and parameter draws.
std::vector<std::pair<double, std::string>> make_trace(int base_months, int deltas,
                                                       const std::string& dir, double rps,
                                                       double seconds, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> due;
  for (double t = rng.exponential(rps); t < seconds; t += rng.exponential(rps)) due.push_back(t);

  const std::vector<double> weights = ClientOptions{}.kind_weights;
  std::vector<std::size_t> block_kinds;
  for (std::size_t k = 0; k < weights.size(); ++k)
    block_kinds.insert(block_kinds.end(), static_cast<std::size_t>(weights[k]), k);
  std::vector<std::size_t> kinds, block;
  while (kinds.size() < due.size()) {
    block = block_kinds;
    rng.shuffle(block);
    kinds.insert(kinds.end(), block.begin(), block.end());
  }
  kinds.resize(due.size());
  std::vector<std::vector<Request>> by_kind(weights.size());
  for (std::size_t k = 0; k < weights.size(); ++k) {
    ClientOptions one;
    one.request_total_cnt = static_cast<int>(std::count(kinds.begin(), kinds.end(), k));
    one.seed = seed * weights.size() + k;
    one.tenants.clear();
    for (int t = 0; t < kReadTenants; ++t) one.tenants.push_back("t" + std::to_string(t));
    one.kind_weights.assign(weights.size(), 0);
    one.kind_weights[k] = 1;
    by_kind[k] = synthesize_trace(one);
  }
  std::vector<std::size_t> next(weights.size(), 0);
  std::vector<std::pair<double, std::string>> out;
  for (std::size_t i = 0; i < due.size(); ++i)
    out.emplace_back(due[i], by_kind[kinds[i]][next[kinds[i]]++].to_json());
  for (int k = 0; k < deltas; ++k)
    out.emplace_back(seconds * (k + 1) / (deltas + 1), ingest_line(dir, base_months + k));
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

bool is_ingest(const std::string& line) {
  return line.find("\"kind\":\"ingest\"") != std::string::npos;
}

/// Submit one request line as the daemon does; records parse time and
/// generator lateness in `slot`.
void submit_line(AnalysisServer& server, const std::string& line, std::uint64_t id, double due,
                 double window_start, Slot& slot) {
  const double ts = now_s();
  slot.due = due;
  slot.lag = ts - window_start - due;
  slot.ingest = is_ingest(line);
  Request req = Request::from_json(parse_json(line));
  req.id = id;
  slot.parse = now_s() - ts;
  server.submit(std::move(req));
}

/// Set-up of one served session: open the base dataset with `open`,
/// then warm case_table, lint and dependence of session "main".
struct Setup {
  double setup_s = 0;
  double open_s = 0;
  double infer_s = 0;  ///< Warm-up case table (dataset directory -> case table) minus open.
  int months = 0;
};

template <typename Open>
Setup open_and_warm(SessionManager& sessions, Open&& open) {
  Setup st;
  const double t0 = now_s();
  open();
  const double t1 = now_s();
  double t2 = 0;
  sessions.with_session("main", [&](AnalysisSession& s) {
    s.case_table();
    t2 = now_s();
    s.lint();
    s.dependence();
    st.months = s.num_months();
  });
  st.setup_s = now_s() - t0;
  st.open_s = t1 - t0;
  st.infer_s = t2 - t1;
  return st;
}

/// True when the session holds every month and its case table and
/// rankings equal the from-scratch full-dataset reference.
bool final_state_ok(AnalysisServer& server, const Ref& ref, int months) {
  return server.sessions().with_session("main", [&](AnalysisSession& s) {
    return s.num_months() == months && digest(s.case_table().to_csv()) == ref.at("case_table") &&
           digest(ranking_text(s.dependence())) == ref.at("rank");
  });
}

/// One open-loop phase against a freshly opened and warmed server: the
/// lines are submitted at their due times (offered rate `rps`, ingests
/// at fixed points of the window).
Rung run_rung(const Options& o, const Shape& sh, const Ref& ref, double rps, double seconds,
              std::uint64_t seed, bool memo_stats) {
  Rung rung;
  const int deltas = std::stoi(ref.at("deltas"));
  std::vector<Slot>& slots = rung.slots;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t completed = 0;
  double window_start = 0;

  bool ingest_busy = false;  // an ingest is submitted and not yet answered

  // The daemon's scheduler limits: past saturation, submits are rejected.
  ServerOptions so;
  so.scheduler.workers = sh.workers;
  so.session.threads = sh.threads;
  AnalysisServer server(so, [&](const Response& resp) {
    const double t = now_s();
    const std::string line = resp.to_json();
    Slot& s = slots[resp.id - 1];
    s.encode = now_s() - t;
    s.done = t - window_start;
    s.status = resp.status;
    s.kind = resp.kind;
    s.queue_ms = resp.queue_ms;
    s.service_ms = resp.service_ms;
    {
      std::lock_guard<std::mutex> lk(mu);
      ++completed;
      if (s.ingest) ingest_busy = false;
    }
    cv.notify_all();
  });

  const Setup st = open_and_warm(server.sessions(),
                                 [&] { server.open_directory("main", o.dir + "/base"); });
  rung.setup_s = st.setup_s;
  rung.open_s = st.open_s;
  rung.infer_s = st.infer_s;
  const int base_months = st.months;

  const auto trace = make_trace(base_months, deltas, o.dir, rps, seconds, seed);
  slots.resize(trace.size());
  std::size_t submitted = 0;
  auto submit = [&](std::size_t i, double due) {
    submit_line(server, trace[i].second, submitted + 1, due, window_start, slots[submitted]);
    ++submitted;
  };
  auto clock_at = [](double t) {
    return std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(t)));
  };
  window_start = now_s();
  // Reads go out at their due times. The ingest tenant is one writer
  // that sends its next delta only once the previous one is answered
  // (months must append in order, and two workers may run one tenant's
  // queued requests out of order); its latency still runs from the due
  // time.
  std::deque<std::size_t> ingests;  // due and not yet submitted
  auto ingest_free = [&] { return !ingests.empty() && !ingest_busy; };
  auto submit_ingest = [&](std::unique_lock<std::mutex>& lk) {
    ingest_busy = true;
    lk.unlock();
    submit(ingests.front(), trace[ingests.front()].first);
    ingests.pop_front();
  };
  for (std::size_t i = 0; i < trace.size(); ++i) {
    {
      std::unique_lock<std::mutex> lk(mu);
      while (cv.wait_until(lk, clock_at(window_start + trace[i].first), ingest_free)) {
        submit_ingest(lk);
        lk.lock();
      }
    }
    if (is_ingest(trace[i].second)) ingests.push_back(i);
    else submit(i, trace[i].first);
  }
  while (!ingests.empty()) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, ingest_free);
    submit_ingest(lk);
  }
  server.drain();
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return completed == submitted; });
  }
  slots.resize(submitted);
  rung.drain_ms = std::max(0.0, (now_s() - window_start - seconds) * 1e3);

  rung.final_ok = final_state_ok(server, ref, base_months + deltas);
  if (memo_stats) {
    server.sessions().with_session("main", [&](AnalysisSession& s) {
      const RunManifest m = s.manifest();
      std::size_t memo = 0;
      for (const StageRun& stage : m.stages) memo += stage.source == "memo";
      rung.memo_hit_ratio = m.stages.empty() ? 0 : static_cast<double>(memo) / m.stages.size();
    });
  }
  return rung;
}

/// Samples of the steady cycles.
struct Steady {
  /// Latency of each ok sequential read (submit to encoded response), by
  /// request shape: the request with its id and tenant cleared.
  std::map<std::string, std::vector<double>> latency_ms;
  /// ok reads and seconds (first submit to last response) of the
  /// saturated blocks, summed: predict is un-memoized and the costliest
  /// kind, and one block holds only some 25 predicts of several draws,
  /// so throughput is taken over all blocks together.
  double saturated_ok = 0, saturated_s = 0;
  int cycles = 0;
  std::vector<double> setup_s, open_s;
  std::uint64_t ok = 0, not_ok = 0;
  bool final_ok = false;
};

/// Closed-loop cycles at steady state until `until` (a now_s() time), on
/// one freshly warmed server: the deltas are ingested first, one at a
/// time; then each cycle runs a sequential block (one read in flight,
/// so a read's latency is its own service, never a queue), a saturated
/// block (kOutstanding reads in flight: sustained throughput) and a
/// timed set-up of a fresh session beside the idle server. Responses
/// are dropped after every cycle, so memory stays bounded.
Steady run_steady(const Options& o, const Shape& sh, const Ref& ref, double until,
                  std::uint64_t seed) {
  Steady out;
  struct Done {
    double t = 0;
    RequestStatus status = RequestStatus::kOk;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::uint64_t, Done> done;  // this block's responses by id
  ServerOptions so;
  so.scheduler.workers = sh.workers;
  so.session.threads = sh.threads;
  AnalysisServer server(so, [&](const Response& resp) {
    (void)resp.to_json();  // the daemon writes every response as one line
    const Done d{now_s(), resp.status};
    {
      std::lock_guard<std::mutex> lk(mu);
      done[resp.id] = d;
    }
    cv.notify_all();
  });
  const std::string base = o.dir + "/base";
  const Setup first =
      open_and_warm(server.sessions(), [&] { server.open_directory("main", base); });
  out.setup_s.push_back(first.setup_s);
  out.open_s.push_back(first.open_s);

  // Submit `lines` in order, at most `outstanding` in flight, until
  // `stop`; wait for every response. Returns each request's submit
  // time, response and shape.
  std::uint64_t next_id = 0;
  struct Sent {
    double t = 0;
    std::uint64_t id = 0;
    std::string shape;
  };
  auto block = [&](const std::vector<std::string>& lines, std::size_t& next, int outstanding,
                   double stop) {
    std::vector<Sent> sent;
    {
      std::lock_guard<std::mutex> lk(mu);
      done.clear();
    }
    do {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] {
          return sent.size() - done.size() < static_cast<std::size_t>(outstanding);
        });
      }
      const double ts = now_s();
      Request req = Request::from_json(parse_json(lines[next++ % lines.size()]));
      req.id = ++next_id;
      sent.push_back({ts, req.id, ""});
      Request shape = req;
      server.submit(std::move(req));
      shape.id = 0;
      shape.tenant.clear();
      sent.back().shape = shape.to_json();
    } while (now_s() < stop);
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done.size() == sent.size(); });
    std::vector<std::pair<Sent, Done>> res;
    for (const Sent& s : sent) {
      res.emplace_back(s, done.at(s.id));
      (done.at(s.id).status == RequestStatus::kOk ? out.ok : out.not_ok) += 1;
    }
    return res;
  };

  const int deltas = std::stoi(ref.at("deltas"));
  std::vector<std::string> ingests;
  for (int k = 0; k < deltas; ++k) ingests.push_back(ingest_line(o.dir, first.months + k));
  std::size_t next_ingest = 0;
  for (int k = 0; k < deltas; ++k) block(ingests, next_ingest, 1, 0);

  std::vector<std::string> reads;
  for (const auto& [due, line] : make_trace(first.months, 0, o.dir, kSteadyLines, 1.0, seed))
    reads.push_back(line);
  std::size_t next_read = 0;
  do {
    for (const auto& [s, d] : block(reads, next_read, 1, now_s() + kSequentialS))
      if (d.status == RequestStatus::kOk) out.latency_ms[s.shape].push_back((d.t - s.t) * 1e3);
    const auto sat = block(reads, next_read, kOutstanding, now_s() + kSaturatedS);
    double last = sat.front().first.t;
    std::uint64_t ok = 0;
    for (const auto& [s, d] : sat) {
      last = std::max(last, d.t);
      ok += d.status == RequestStatus::kOk;
    }
    out.saturated_ok += static_cast<double>(ok);
    out.saturated_s += last - sat.front().first.t;
    ++out.cycles;
    server.clear_responses();
    SessionManager sessions;
    const Setup st =
        open_and_warm(sessions, [&] { sessions.open_directory("main", base, so.session); });
    out.setup_s.push_back(st.setup_s);
    out.open_s.push_back(st.open_s);
  } while (now_s() < until);
  out.final_ok = final_state_ok(server, ref, first.months + deltas);
  return out;
}

/// Mean read latency of the requests sent, each request shape's cost
/// taken as the median of its samples. Shapes differ in cost by two
/// orders of magnitude (predict at 5 classes against 2, a lint report
/// filtered or not), so an order statistic of all reads, or of one kind,
/// sits in a gap between shapes and jumps from run to run; this mean
/// moves smoothly with the mix and ignores a host stall's outliers.
double mix_latency_ms(const std::map<std::string, std::vector<double>>& by_shape) {
  double sum = 0, count = 0;
  for (const auto& [shape, v] : by_shape) {
    sum += static_cast<double>(v.size()) * median(v);
    count += static_cast<double>(v.size());
  }
  return sum / count;
}

/// The traced pass over the ingest path: the base warm-up and every
/// delta append re-executed from the layers' public functions, against
/// the same work through a real session untraced.
void trace_ingest_path(const Options& o, const Shape& sh, const Ref& ref, Result& r) {
  NumberMap& m = r.metrics;
  const int deltas = std::stoi(ref.at("deltas"));
  const std::string base = o.dir + "/base";
  auto delta_dir = [&](int k) { return o.dir + "/delta-" + std::to_string(sh.first_delta + k); };
  const Practice practice = causal_practices().front();
  constexpr ModelKind kModel = ModelKind::kDtBoostOversample;

  std::vector<double> append_s;
  double untraced_s = 0;
  InferenceOptions io;
  malloc_trim(0);  // the untraced pass starts from a trimmed heap, like Pass
  const double u0 = now_s();
  {
    SessionOptions so;
    so.threads = 1;
    AnalysisSession s = AnalysisSession::from_directory(base, so);
    io.num_months = s.num_months();
    s.case_table();
    s.lint();
    s.dependence();
    for (int k = 0; k < deltas; ++k) {
      const MonthDelta delta = load_month_delta(delta_dir(k));
      const double t = now_s();
      s.append_month(delta);
      append_s.push_back(now_s() - t);
    }
    s.causal(practice);
    s.evaluate_cv(2, kModel);
    const int months = s.num_months();
    s.online_accuracy(2, 3, kModel, std::min(months - 1, 3), months - 1);
    untraced_s = now_s() - u0;  // before the data is freed: the traced pass keeps its own
  }
  m.set("engine.append_s", median(append_s));

  Pass pass(m);
  LayerTrace trace;
  std::uint64_t bytes = 0;
  DiskDataset d = pass.time("io", "io.load_s", [&] { return load_dataset(base, &bytes); });
  m.set("io.bytes_in", static_cast<double>(bytes));
  pass.rss("open");
  CaseTable table = traced_infer(d.inventory, d.snapshots, d.tickets, io, 0, trace);
  set_network_skew(trace, m);
  pass.add_trace(trace);
  pass.rss("case_table");
  LintReport lint = traced_lint(d.inventory, d.snapshots, io.lint, trace);
  pass.add_trace(trace);
  pass.rss("lint");
  auto dep = pass.time("mpa", "mpa.dependence_s",
                   [&] { return std::make_unique<DependenceAnalysis>(table); });
  pass.rss("dependence");
  for (int k = 0; k < deltas; ++k) {
    const MonthDelta delta =
        pass.time("io", "io.load_s", [&] { return load_month_delta(delta_dir(k)); });
    const int month = delta.month;
    pass.time("engine", "engine.ingest_s", [&] {
      for (const auto& s : delta.snapshots) d.snapshots.add(s);
      for (const auto& t : delta.tickets) d.tickets.add(t);
    });
    io.num_months = month + 1;
    const CaseTable tail = traced_infer(d.inventory, d.snapshots, d.tickets, io, month, trace);
    pass.add_trace(trace);
    table = pass.time("engine", "engine.ingest_s", [&] {
      const auto& nets = d.inventory.networks();
      const auto old = static_cast<std::size_t>(month);
      std::vector<Case> merged;
      merged.reserve(table.size() + tail.size());
      for (std::size_t n = 0; n < nets.size(); ++n) {
        for (std::size_t i = 0; i < old; ++i) merged.push_back(table[n * old + i]);
        merged.push_back(tail[n]);
      }
      return CaseTable(std::move(merged));
    });
    std::set<std::string> touched;
    for (const auto& s : delta.snapshots)
      touched.insert(d.inventory.find_device(s.device_id)->network_id);
    const auto& nets = d.inventory.networks();
    for (std::size_t n = 0; n < nets.size(); ++n)
      if (touched.count(nets[n].network_id) != 0)
        lint.networks[n] = traced_network_lint(nets[n], d.inventory, d.snapshots, io.lint, trace);
    pass.add_trace(trace);
    pass.time("mpa", "mpa.dependence_s", [&] {
      if (!dep->append_month(table, month)) dep = std::make_unique<DependenceAnalysis>(table);
    });
  }
  pass.rss("ingest");
  pass.time("mpa", "mpa.causal_s", [&] { return causal_analysis(table, practice); });
  Rng rng(1);
  pass.time("learn", "learn.cv_s", [&] { return evaluate_model_cv(table, 2, kModel, rng); });
  pass.time("learn", "learn.online_s", [&] {
    return online_prediction_accuracy(table, 2, 3, kModel, rng, std::min(io.num_months - 1, 3),
                                      io.num_months - 1);
  });
  pass.rss("learn");
  pass.finish(untraced_s);
  add_trace_ratios(trace, m);
  r.op(digest(table.to_csv()) == ref.at("case_table"));
  r.op(digest(ranking_text(*dep)) == ref.at("rank"));
}

}  // namespace

Result run_serve_mixed(const Options& o) {
  const Shape sh = shape_of(o.workload);
  const Ref ref = read_ref(o.dir);
  Result r;
  if (o.trace) init_per_layer(r.metrics);
  r.info["threads"] = std::to_string(sh.threads);
  r.info["workers"] = std::to_string(sh.workers);
  r.info["nominal_rps"] = std::to_string(ladder_rate(kNominalRung));

  const double start = now_s();
  // Latency at the nominal offered rate: a quarter of an untraced run,
  // 60% of a traced one.
  const double nominal_s = (o.trace ? 0.6 : kNominalShare) * o.seconds;
  const double tail_q = tail_quantile(ladder_rate(kNominalRung) * nominal_s);
  r.info["tail_percentile"] = std::to_string(tail_q * 100);
  std::vector<Rung> rungs;
  auto account = [&](const Rung& g) {
    for (const Slot& s : g.slots) r.op(s.status == RequestStatus::kOk);
    r.op(g.final_ok);
    rungs.push_back(g);
  };
  // A ladder probe above capacity is refused work by design: its
  // rejected, late and failed requests fail the probe (Rung::meets) and
  // are counted in serve.*, not as failed operations. Its ok responses
  // count, and its final state is checked whenever every ingest was ok.
  auto account_probe = [&](const Rung& g) {
    bool ingests_ok = true;
    for (const Slot& s : g.slots) {
      if (s.status == RequestStatus::kOk) r.op(true);
      else if (s.ingest) ingests_ok = false;
    }
    if (ingests_ok) r.op(g.final_ok);
    rungs.push_back(g);
  };
  if (!o.trace) {
    const Rung nominal = run_rung(o, sh, ref, ladder_rate(kNominalRung), nominal_s,
                                  o.seed * 1000 + kNominalRung, false);
    // Peak RSS of the first phase in a fresh process: one warmed server
    // and the responses it keeps (later phases reuse freed memory, so
    // their high-water mark mostly measures the allocator).
    const double peak_rss_mb = proc_status_mb("VmHWM");
    account(nominal);
    const std::vector<double> reads = nominal.read_latency_ms();
    std::vector<double> ingest_ms;
    for (const Slot& s : nominal.slots)
      if (s.ingest) ingest_ms.push_back((s.done - s.due) * 1e3);

    Steady steady = run_steady(o, sh, ref, start + o.seconds, o.seed * 1000 + 990);
    for (std::uint64_t k = 0; k < steady.ok; ++k) r.op(true);
    for (std::uint64_t k = 0; k < steady.not_ok; ++k) r.op(false);
    r.op(steady.final_ok);
    steady.setup_s.push_back(nominal.setup_s);
    steady.open_s.push_back(nominal.open_s);
    r.metrics.set("setup_s", median(steady.setup_s));
    r.metrics.set("open_s", median(steady.open_s));
    r.metrics.set("op_latency_ms", mix_latency_ms(steady.latency_ms));
    r.metrics.set("ops_per_s", steady.saturated_ok / steady.saturated_s);
    r.metrics.set("peak_rss_mb", peak_rss_mb);
    r.info["steady_cycles"] = std::to_string(steady.cycles);
    r.info["serve_p50_ms"] = std::to_string(median(reads));
    r.info["serve_tail_ms"] = std::to_string(quantile(reads, tail_q));
    r.info["ingest_p50_ms"] = std::to_string(median(ingest_ms));
    return r;
  }

  const Rung nominal = run_rung(o, sh, ref, ladder_rate(kNominalRung), nominal_s,
                                o.seed * 1000 + kNominalRung, true);
  account(nominal);
  const std::vector<double> reads = nominal.read_latency_ms();
  std::vector<double> ingest_ms;
  for (const Slot& s : nominal.slots)
    if (s.ingest) ingest_ms.push_back((s.done - s.due) * 1e3);

  // Traced: the offered-rate ladder. Binary search for the highest rate
  // that meets the limit; every probe starts from a freshly warmed server.
  int lo = -1, hi = kRungs;
  (nominal.meets(tail_q) ? lo : hi) = kNominalRung;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const Rung g =
        run_rung(o, sh, ref, ladder_rate(mid), 0.1 * o.seconds, o.seed * 1000 + mid, false);
    account_probe(g);
    (g.meets(tail_q) ? lo : hi) = mid;
  }
  NumberMap& m = r.metrics;
  m.set("serve.max_rps", lo >= 0 ? ladder_rate(lo) : 0);
  std::vector<double> open_s, infer_s, queue_ms, codec_us, lag_ms;
  for (const Rung& g : rungs) {
    open_s.push_back(g.open_s);
    infer_s.push_back(g.infer_s);
  }
  std::map<RequestKind, std::vector<double>> service_ms;
  for (const Slot& s : nominal.slots) {
    queue_ms.push_back(s.queue_ms);
    codec_us.push_back((s.parse + s.encode) * 1e6);
    lag_ms.push_back(s.lag * 1e3);
    service_ms[s.kind].push_back(s.service_ms);
  }
  m.set("metrics.infer_s", median(infer_s));
  m.set("engine.open_s", median(open_s));
  m.set("engine.memo_hit_ratio", nominal.memo_hit_ratio);
  m.set("serve.queue_ms.p50", median(queue_ms));
  m.set("serve.queue_ms.tail", quantile(queue_ms, tail_q));
  m.set("serve.tail_ms", quantile(reads, tail_q));
  m.set("serve.ingest_p50_ms", median(ingest_ms));
  for (const auto& [kind, v] : service_ms)
    m.set("serve.render_ms." + std::string(to_string(kind)), median(v));
  m.set("serve.codec_us", median(codec_us));
  m.set("serve.generator_lag_ms", quantile(lag_ms, tail_q));
  for (const Rung& g : rungs)
    for (const Slot& s : g.slots) {
      m.add("serve.rejected", s.status == RequestStatus::kRejected);
      m.add("serve.deadline", s.status == RequestStatus::kDeadlineExceeded);
      m.add("serve.errors", s.status == RequestStatus::kError);
    }
  trace_ingest_path(o, sh, ref, r);
  return r;
}

}  // namespace perfbench
