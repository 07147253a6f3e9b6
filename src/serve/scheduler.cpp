#include "serve/scheduler.hpp"

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"

namespace mpa::serve {
namespace {

void count(const char* name) {
  if (obs::enabled()) obs::Registry::global().counter(name).add(1);
}

void observe_seconds(const char* name, double seconds) {
  if (obs::enabled()) obs::Registry::global().histogram(name).observe(seconds);
}

double ms_between(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return t1_ns > t0_ns ? static_cast<double>(t1_ns - t0_ns) * 1e-6 : 0.0;
}

/// Structural per-request completion event: id/tenant/kind/status only
/// — no timing, so the canonical event stream stays deterministic.
void log_done(const Response& resp) {
  obs::LogEvent(obs::LogLevel::kInfo, "request_done")
      .u64("id", resp.id)
      .str("tenant", resp.tenant)
      .str("kind", to_string(resp.kind))
      .str("status", to_string(resp.status));
}

}  // namespace

void register_serve_metrics() {
  auto& reg = obs::Registry::global();
  for (const char* name :
       {"mpa_serve_submitted_total", "mpa_serve_admitted_total", "mpa_serve_rejected_total",
        "mpa_serve_completed_total", "mpa_serve_ok_total", "mpa_serve_deadline_miss_total",
        "mpa_serve_error_total", "mpa_serve_introspected_total",
        "mpa_session_manager_opens_total", "mpa_session_manager_closes_total"}) {
    reg.counter(name);
  }
  reg.gauge("mpa_sessions_resident");
  for (const char* name : {"mpa_serve_queue_wait_seconds", "mpa_serve_service_seconds",
                           "mpa_serve_latency_seconds"}) {
    reg.histogram(name);
  }
}

Scheduler::Scheduler(SchedulerOptions opts, Executor executor, Sink sink,
                     Introspector introspector)
    : opts_(opts),
      executor_(std::move(executor)),
      sink_(std::move(sink)),
      introspector_(std::move(introspector)),
      window_(opts.window != nullptr
                  ? opts.window
                  : (obs::enabled() ? &obs::WindowRegistry::global() : nullptr)) {
  if (obs::enabled()) register_serve_metrics();
  const int workers = opts_.workers < 1 ? 1 : opts_.workers;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) workers_.emplace_back([this] { worker_loop(); });
}

Scheduler::~Scheduler() {
  drain();
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool Scheduler::submit(Request req) {
  const std::uint64_t now = obs::now_ns();
  if (introspector_ &&
      (req.kind == RequestKind::kStats || req.kind == RequestKind::kHealth)) {
    // Out-of-band introspection: answered synchronously on the
    // submitting thread, never enqueued, never occupying queue depth —
    // the expired-at-submit path's shape — so a saturated daemon still
    // answers "what is going on".
    {
      MutexLock lk(mu_);
      ++stats_.submitted;
      ++stats_.completed;
      ++stats_.introspected;
    }
    count("mpa_serve_submitted_total");
    introspect(req);
    return false;
  }
  if (req.deadline_ms < 0) {
    // Already expired at submit. Historically this was detected only
    // at dequeue, so a dead-on-arrival request occupied queue depth
    // (and could trigger queue_full rejections of live work) before
    // completing. Answer synchronously, never enqueue.
    {
      MutexLock lk(mu_);
      ++stats_.submitted;
      ++stats_.completed;
      ++stats_.deadline_misses;
    }
    count("mpa_serve_submitted_total");
    expire(req);
    return false;
  }
  const char* reject_reason = nullptr;
  {
    MutexLock lk(mu_);
    ++stats_.submitted;
    if (ready_ >= opts_.max_queue_depth) {
      ++stats_.rejected;
      reject_reason = "queue_full";  // Sink invoked outside the lock, below.
    } else if (active_ >= opts_.max_active_reqs) {
      ++stats_.rejected;
      reject_reason = "max_active_reqs";
    } else {
      Item item;
      item.enqueue_ns = now;
      const double deadline_ms =
          req.deadline_ms > 0 ? req.deadline_ms : opts_.default_deadline_ms;
      if (deadline_ms > 0)
        item.deadline_ns = now + static_cast<std::uint64_t>(deadline_ms * 1e6);
      auto [it, inserted] = tenants_.try_emplace(req.tenant);
      if (inserted) rr_tenants_.push_back(req.tenant);
      obs::LogEvent(obs::LogLevel::kDebug, "request_enqueued")
          .u64("id", req.id)
          .str("tenant", req.tenant)
          .str("session", req.session)
          .str("kind", to_string(req.kind));
      item.req = std::move(req);
      it->second.queue.push_back(std::move(item));
      ++ready_;
      ++active_;
      ++stats_.admitted;
      count("mpa_serve_submitted_total");
      count("mpa_serve_admitted_total");
      work_cv_.notify_one();
      return true;
    }
  }
  // Rejected: answer immediately and explicitly.
  count("mpa_serve_submitted_total");
  reject(req, reject_reason);
  return false;
}

void Scheduler::expire(const Request& req) {
  count("mpa_serve_deadline_miss_total");
  count("mpa_serve_completed_total");
  Response resp;
  resp.id = req.id;
  resp.tenant = req.tenant;
  resp.session = req.session;
  resp.kind = req.kind;
  resp.status = RequestStatus::kDeadlineExceeded;
  resp.body = "deadline exceeded at submit";
  record_window(resp);
  log_done(resp);
  if (sink_) sink_(resp);
}

void Scheduler::introspect(const Request& req) {
  count("mpa_serve_introspected_total");
  count("mpa_serve_completed_total");
  Response resp;
  resp.id = req.id;
  resp.tenant = req.tenant;
  resp.session = req.session;
  resp.kind = req.kind;
  try {
    Response answered = introspector_(req);
    resp.status = answered.status;
    resp.body = std::move(answered.body);
  } catch (const std::exception& e) {
    resp.status = RequestStatus::kError;
    resp.body = e.what();
  }
  // Introspection is observability about the window, not workload in
  // it — deliberately not recorded into the windowed registry.
  log_done(resp);
  if (sink_) sink_(resp);
  MutexLock lk(mu_);
  if (resp.status == RequestStatus::kOk) ++stats_.ok;
  if (resp.status == RequestStatus::kError) ++stats_.errors;
}

void Scheduler::record_window(const Response& resp) {
  if (window_ == nullptr) return;
  window_->record(resp.tenant, to_string(resp.kind), to_string(resp.status), resp.queue_ms,
                  resp.service_ms, resp.total_ms);
}

void Scheduler::reject(const Request& req, const std::string& reason) {
  count("mpa_serve_rejected_total");
  obs::LogEvent(obs::LogLevel::kInfo, "request_rejected")
      .u64("id", req.id)
      .str("tenant", req.tenant)
      .str("kind", to_string(req.kind))
      .str("reason", reason);
  Response resp;
  resp.id = req.id;
  resp.tenant = req.tenant;
  resp.session = req.session;
  resp.kind = req.kind;
  resp.status = RequestStatus::kRejected;
  resp.body = "rejected: " + reason;
  record_window(resp);
  log_done(resp);
  if (sink_) sink_(resp);
}

bool Scheduler::pop_next(Item* out) {
  if (ready_ == 0 || rr_tenants_.empty()) return false;
  for (std::size_t probe = 0; probe < rr_tenants_.size(); ++probe) {
    const std::size_t slot = (rr_cursor_ + probe) % rr_tenants_.size();
    Tenant& t = tenants_[rr_tenants_[slot]];
    if (t.queue.empty() || t.ingest_running) continue;
    const bool ingest = t.queue.front().req.kind == RequestKind::kIngest;
    if (ingest && t.running > 0) continue;
    *out = std::move(t.queue.front());
    t.queue.pop_front();
    ++t.running;
    t.ingest_running = ingest;
    --ready_;
    rr_cursor_ = (slot + 1) % rr_tenants_.size();
    return true;
  }
  return false;
}

void Scheduler::worker_loop() {
  MutexLock lk(mu_);
  while (true) {
    Item item;
    while (!pop_next(&item)) {
      if (stop_) return;  // the destructor drained first: nothing is queued
      work_cv_.wait(mu_);
    }
    lk.unlock();  // never hold mu_ across executor_/sink_

    const std::uint64_t dequeue_ns = obs::now_ns();
    const double queue_ms = ms_between(item.enqueue_ns, dequeue_ns);
    observe_seconds("mpa_serve_queue_wait_seconds", queue_ms * 1e-3);

    // The request context minted at submit, adopted by this worker:
    // every span closed and event logged until the sink returns is
    // tagged with req_id/tenant, and stage timings accumulate for the
    // slow-request exemplar log (the sink reads them via
    // obs::current_request_context()).
    obs::RequestContext ctx;
    ctx.req_id = item.req.id;
    ctx.tenant = item.req.tenant;
    ctx.kind = std::string(to_string(item.req.kind));
    ctx.enqueue_ns = item.enqueue_ns;
    ctx.dequeue_ns = dequeue_ns;
    ctx.collect = true;
    obs::ScopedRequestContext scoped(&ctx);

    Response resp;
    resp.id = item.req.id;
    resp.tenant = item.req.tenant;
    resp.session = item.req.session;
    resp.kind = item.req.kind;
    resp.queue_ms = queue_ms;
    if (item.deadline_ns != 0 && dequeue_ns >= item.deadline_ns) {
      // Expired before dispatch: complete explicitly, never execute,
      // never drop.
      resp.status = RequestStatus::kDeadlineExceeded;
      resp.body = "deadline exceeded before dispatch";
      count("mpa_serve_deadline_miss_total");
    } else {
      try {
        Response executed = executor_(item.req);
        resp.status = executed.status;
        resp.body = std::move(executed.body);
      } catch (const std::exception& e) {
        resp.status = RequestStatus::kError;
        resp.body = e.what();
      }
      resp.service_ms = ms_between(dequeue_ns, obs::now_ns());
      observe_seconds("mpa_serve_service_seconds", resp.service_ms * 1e-3);
      if (resp.status == RequestStatus::kError) count("mpa_serve_error_total");
    }
    ctx.finish_ns = obs::now_ns();
    resp.total_ms = ms_between(item.enqueue_ns, ctx.finish_ns);
    observe_seconds("mpa_serve_latency_seconds", resp.total_ms * 1e-3);
    count("mpa_serve_completed_total");
    if (resp.status == RequestStatus::kOk) count("mpa_serve_ok_total");
    record_window(resp);
    log_done(resp);
    if (sink_) sink_(resp);

    lk.lock();
    ++stats_.completed;
    if (resp.status == RequestStatus::kOk) ++stats_.ok;
    if (resp.status == RequestStatus::kDeadlineExceeded) ++stats_.deadline_misses;
    if (resp.status == RequestStatus::kError) ++stats_.errors;
    --active_;
    if (active_ == 0) drain_cv_.notify_all();
    // The tenant's next request may have waited on this one.
    Tenant& t = tenants_[item.req.tenant];
    --t.running;
    t.ingest_running = false;
    if (!t.queue.empty()) work_cv_.notify_all();
  }
}

void Scheduler::drain() {
  MutexLock lk(mu_);
  while (active_ != 0) drain_cv_.wait(mu_);
}

Scheduler::Stats Scheduler::stats() const {
  MutexLock lk(mu_);
  return stats_;
}

std::size_t Scheduler::queue_depth() const {
  MutexLock lk(mu_);
  return ready_;
}

}  // namespace mpa::serve
