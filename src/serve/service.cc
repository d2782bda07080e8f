#include "serve/service.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "algos/programs.h"
#include "common/flight_recorder.h"
#include "common/json.h"
#include "common/live_status.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace itg {
namespace serve {

namespace {

uint64_t MicrosBetween(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

// Structured error code for a failed registration, from the Status the
// view-construction pipeline produced.
const char* RegisterErrorCode(const Status& s) {
  switch (s.code()) {
    case StatusCode::kOutOfMemory:
      return "budget_exceeded";
    case StatusCode::kParseError:
    case StatusCode::kTypeError:
    case StatusCode::kCompileError:
    case StatusCode::kInvalidArgument:
    case StatusCode::kUnsupported:
      return "compile_error";
    default:
      return "internal";
  }
}

}  // namespace

StatusOr<std::unique_ptr<Service>> Service::Create(
    VertexId num_vertices, std::vector<Edge> base_edges,
    const ServiceOptions& options) {
  auto service = std::unique_ptr<Service>(new Service());
  service->options_ = options;
  service->registry_ = options.registry != nullptr
                           ? options.registry
                           : &GlobalMetrics().registry();
  MetricsRegistry* reg = service->registry_;
  service->backpressure_stalls_ = reg->counter("serve.backpressure_stalls");
  service->ingest_batches_ = reg->counter("serve.ingest_batches");
  service->ingest_ops_ = reg->counter("serve.ingest_ops");
  service->delta_messages_ = reg->counter("serve.delta_messages");
  service->slow_batches_ = reg->counter("serve.slow_batches");
  service->standing_queries_gauge_ = reg->gauge("serve.standing_queries");
  service->queue_depth_gauge_ = reg->gauge("serve.queue_depth");
  service->stage_validate_ = reg->histogram("serve.stage_latency_us.validate");
  service->stage_queue_wait_ =
      reg->histogram("serve.stage_latency_us.queue_wait");
  service->stage_apply_ = reg->histogram("serve.stage_latency_us.apply");
  // Built here (not at member init) because the contention histogram
  // lives in the service's registry, resolved just above. Must precede
  // the maintenance-thread spawn below.
  service->queue_mu_ =
      std::make_unique<TimedMutex>("serve.ingest_queue", reg);
  // Trace-id layout: a 31-bit per-process salt in bits 32..62, the batch
  // seq in the low 32 bits. Ids are therefore nonzero, unique per service
  // for 2^32 batches, visibly distinct from raw seqs, and fit in a
  // positive int64 so they double as trace-span arguments.
  const uint64_t nanos = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  service->trace_id_base_ = ((nanos & 0x3FFFFFFFull) | 0x40000000ull) << 32;

  if (!options.scratch_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.scratch_dir, ec);
  }

  // The primary mirrors the store's simple-graph normalization (dedup,
  // no self-loops) into present_, the ingest-validation edge set.
  for (const Edge& e : base_edges) {
    if (e.src != e.dst) service->present_.insert(e);
  }
  std::vector<Edge> edges(service->present_.begin(),
                          service->present_.end());
  ITG_ASSIGN_OR_RETURN(
      service->primary_,
      DynamicGraphStore::Create(options.scratch_dir + "/primary",
                                num_vertices, std::move(edges),
                                DynamicGraphStore::Options{},
                                &GlobalMetrics()));
  service->maintenance_ = std::thread([s = service.get()] {
    s->MaintenanceLoop();
  });
  return service;
}

Service::~Service() { Drain(); }

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

Response Service::Register(const Request& req, Response* snapshot_out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    return MakeError(RequestOp::kRegister, req.query, "shutting_down",
                     "service is draining");
  }
  if (queries_.count(req.query) != 0) {
    return MakeError(RequestOp::kRegister, req.query, "already_exists",
                     "query '" + req.query + "' is already registered");
  }
  if (queries_.size() >= options_.max_queries) {
    return MakeError(RequestOp::kRegister, req.query, "admission_full",
                     "max standing queries reached (" +
                         std::to_string(options_.max_queries) + ")");
  }

  StandingQueryOptions sq;
  sq.name = req.query;
  sq.fixed_supersteps = -1;
  if (!req.program.empty()) {
    int builtin_supersteps = -1;
    if (!NamedProgram(req.program, &sq.source, &builtin_supersteps)) {
      return MakeError(RequestOp::kRegister, req.query, "compile_error",
                       "unknown builtin program '" + req.program + "'");
    }
    sq.fixed_supersteps = builtin_supersteps;
  } else {
    sq.source = req.source;
  }
  if (req.supersteps != 0) sq.fixed_supersteps = req.supersteps;
  sq.symmetric = req.symmetric;
  sq.budget_bytes = req.budget_bytes != 0 ? req.budget_bytes
                                          : options_.default_budget_bytes;
  sq.scratch_path = options_.scratch_dir + "/view_" + req.query;
  sq.num_threads = options_.num_threads;
  sq.verify_on_register = options_.verify_on_register;
  sq.registry = registry_;

  auto query_or = StandingQuery::Create(primary_.get(), sq);
  if (!query_or.ok()) {
    const Status& s = query_or.status();
    ITG_LOG(Warn) << "serve: register '" << req.query
                  << "' failed: " << s.ToString();
    return MakeError(RequestOp::kRegister, req.query, RegisterErrorCode(s),
                     s.ToString());
  }
  auto query = std::move(query_or).value();

  Response ack = MakeAck(RequestOp::kRegister, req.query);
  ack.timestamp = query->timestamp();
  ack.digest = query->digest();
  if (req.snapshot && snapshot_out != nullptr) {
    query->FillSnapshot(snapshot_out);
  }
  BindViewPipelineLocked(query.get());
  queries_[req.query] = std::move(query);
  standing_queries_gauge_->Set(static_cast<int64_t>(queries_.size()));
  ITG_LOG(Info) << "serve: registered standing query '" << req.query << "'";
  return ack;
}

Response Service::Deregister(const Request& req) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(req.query);
  if (it == queries_.end()) {
    return MakeError(RequestOp::kDeregister, req.query, "unknown_query",
                     "no standing query '" + req.query + "'");
  }
  // Retire the view's per-name registry series so register/deregister
  // churn does not leak dead serve.*.<name> series into /metrics. The
  // cached handles die with the view, so collect the names first.
  const std::vector<std::string> series = it->second->MetricSeriesNames();
  queries_.erase(it);
  RetireViewSeriesLocked(series);
  subscribers_.erase(req.query);
  standing_queries_gauge_->Set(static_cast<int64_t>(queries_.size()));
  return MakeAck(RequestOp::kDeregister, req.query);
}

Response Service::Subscribe(const Request& req, DeltaSink sink,
                            int* sub_id_out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queries_.count(req.query) == 0) {
    return MakeError(RequestOp::kSubscribe, req.query, "unknown_query",
                     "no standing query '" + req.query + "'");
  }
  const int id = next_sub_id_++;
  subscribers_[req.query].push_back(Subscriber{id, std::move(sink)});
  if (sub_id_out != nullptr) *sub_id_out = id;
  return MakeAck(RequestOp::kSubscribe, req.query);
}

void Service::RemoveSubscriber(const std::string& query, int sub_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subscribers_.find(query);
  if (it == subscribers_.end()) return;
  auto& subs = it->second;
  subs.erase(std::remove_if(subs.begin(), subs.end(),
                            [&](const Subscriber& s) {
                              return s.id == sub_id;
                            }),
             subs.end());
  if (subs.empty()) subscribers_.erase(it);
}

Response Service::Ingest(const Request& req) {
  // The batch's end-to-end latency clock starts here; the `validate`
  // stage covers everything up to the ticket hand-off below.
  const auto ingest_start = std::chrono::steady_clock::now();
  // The ingest span is emitted as an explicit complete event at the end
  // so it can carry the batch's trace id (unknown until the seq is
  // assigned under mu_) — that links it into the per-batch waterfall.
  const uint64_t trace_t0 = TraceNowNanos();
  PendingBatch batch;
  batch.ingest_start = ingest_start;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      return MakeError(RequestOp::kIngest, "", "shutting_down",
                       "service is draining");
    }
    // Validate against the live edge set (including still-queued
    // batches): the store's degree bookkeeping requires that inserts
    // target absent edges and deletes present ones, and every vertex
    // must be inside the fixed vertex space.
    const VertexId n = primary_->num_vertices();
    for (const Edge& e : req.inserts) {
      if (e.src < 0 || e.dst < 0 || e.src >= n || e.dst >= n) {
        return MakeError(RequestOp::kIngest, "", "out_of_range",
                         "insert [" + std::to_string(e.src) + "," +
                             std::to_string(e.dst) +
                             ") outside vertex space of " +
                             std::to_string(n));
      }
      if (e.src == e.dst || present_.count(e) != 0) {
        return MakeError(RequestOp::kIngest, "", "invalid_mutation",
                         "insert of present edge or self-loop [" +
                             std::to_string(e.src) + "," +
                             std::to_string(e.dst) + "]");
      }
    }
    for (const Edge& e : req.deletes) {
      if (present_.count(e) == 0) {
        return MakeError(RequestOp::kIngest, "", "invalid_mutation",
                         "delete of absent edge [" +
                             std::to_string(e.src) + "," +
                             std::to_string(e.dst) + "]");
      }
    }
    for (const Edge& e : req.inserts) {
      present_.insert(e);
      batch.ops.push_back({e, Multiplicity{1}});
    }
    for (const Edge& e : req.deletes) {
      present_.erase(e);
      batch.ops.push_back({e, Multiplicity{-1}});
    }
    batch.seq = next_seq_++;
    batch.trace_id = MakeTraceId(batch.seq);
    // Advance the graph-of-record ingest frontier and refresh every
    // view's staleness gauges against it.
    last_ingested_seq_ = batch.seq;
    last_ingest_time_ = ingest_start;
    for (auto& [name, query] : queries_) UpdateViewLagLocked(query.get());
  }
  batch.enqueued_at = std::chrono::steady_clock::now();
  stage_validate_->Record(MicrosBetween(ingest_start, batch.enqueued_at));
  // The per-batch flow starts inside the ingest span; the maintenance
  // thread emits the steps, so Perfetto draws ingest -> apply ->
  // view_run -> stream_flush arrows under one id.
  TraceFlowBegin("serve.batch", "serve", batch.trace_id);
  const uint64_t trace_id = batch.trace_id;

  size_t depth;
  {
    std::unique_lock<TimedMutex> ql(*queue_mu_);
    // Backpressure: block while the bounded queue is full. Tickets
    // (seq order) keep concurrently blocked producers from reordering
    // batches relative to the validation order above.
    if (queue_.size() >= options_.ingest_queue_depth) {
      backpressure_stalls_->Increment();
    }
    space_cv_.wait(ql, [&] {
      return queue_.size() < options_.ingest_queue_depth &&
             batch.seq == next_ticket_;
    });
    ++next_ticket_;
    queue_.push_back(std::move(batch));
    // Queue depth counts queued + in-flight batches, matching the
    // status op (a batch between dequeue and fan-out is still pending
    // work; reporting it avoids a "0 deep but busy" reading).
    depth = queue_.size() + (applying_ ? 1 : 0);
    queue_depth_gauge_->Set(static_cast<int64_t>(depth));
    queue_cv_.notify_all();
    space_cv_.notify_all();
  }
  ingest_batches_->Increment();
  ingest_ops_->Add(req.inserts.size() + req.deletes.size());

  Response ack = MakeAck(RequestOp::kIngest, "");
  ack.queue_depth = depth;
  ack.trace_id = trace_id;
  TraceCompleteEvent("serve.ingest", "serve", trace_t0,
                     TraceNowNanos() - trace_t0,
                     static_cast<int64_t>(trace_id));
  return ack;
}

Response Service::GetStatus() {
  Response resp;
  std::lock_guard<std::mutex> lock(mu_);
  FillStatusLocked(&resp);
  return resp;
}

void Service::FillStatusLocked(Response* out) {
  out->type = ResponseType::kStatus;
  for (const auto& [name, query] : queries_) {
    UpdateViewLagLocked(query.get());
    QueryRow row;
    query->FillRow(&row);
    auto sub_it = subscribers_.find(name);
    row.subscribers = sub_it != subscribers_.end()
                          ? static_cast<int>(sub_it->second.size())
                          : 0;
    out->queries.push_back(std::move(row));
  }
  {
    std::lock_guard<TimedMutex> ql(*queue_mu_);
    out->queue_depth = queue_.size() + (applying_ ? 1 : 0);
  }
  out->backpressure_stalls = backpressure_stalls_->value();
  out->ingest_batches = ingest_batches_->value();
  out->max_queries = options_.max_queries;
  out->draining = draining_;
}

std::string Service::StatuszExtraJson() {
  Response status = GetStatus();
  // Reuse the wire rendering, then lift the members we want into a
  // named "serving" object (the status message is itself a JSON object;
  // strip its "type" discriminator).
  std::string body = SerializeResponse(status);
  // body = {"type":"status",REST} -> "serving":{REST,"pipeline":{...}}
  const std::string prefix = "{\"type\":\"status\",";
  std::string inner = body.substr(prefix.size());  // REST}  (ends with })
  inner.pop_back();  // re-closed after splicing in the pipeline member
  return "\"serving\":{" + inner + ",\"pipeline\":" + PipelineStatuszJson() +
         "}";
}

std::string Service::PipelineStatuszJson() {
  auto hist_json = [](const Histogram* h) {
    return "{\"count\":" + std::to_string(h->count()) +
           ",\"sum_us\":" + std::to_string(h->sum()) +
           ",\"p50_us\":" + std::to_string(h->PercentileUpperBound(50)) +
           ",\"p95_us\":" + std::to_string(h->PercentileUpperBound(95)) +
           ",\"p99_us\":" + std::to_string(h->PercentileUpperBound(99)) +
           "}";
  };
  std::lock_guard<std::mutex> lock(mu_);
  std::string out =
      "{\"slow_batch_ms\":" + std::to_string(options_.slow_batch_ms) +
      ",\"slow_batches\":" + std::to_string(slow_batches_->value()) +
      ",\"last_ingested_seq\":" + std::to_string(last_ingested_seq_) +
      ",\"last_applied_seq\":" + std::to_string(last_applied_seq_) +
      ",\"stages\":{\"validate\":" + hist_json(stage_validate_) +
      ",\"queue_wait\":" + hist_json(stage_queue_wait_) +
      ",\"apply\":" + hist_json(stage_apply_) + "},\"views\":{";
  bool first = true;
  for (auto& [name, query] : queries_) {
    UpdateViewLagLocked(query.get());
    const auto& pl = query->pipeline();
    if (!first) out.push_back(',');
    first = false;
    const ResourceContext* rc = query->resource_context();
    AppendJsonString(name, &out);
    out += ":{\"lag_batches\":" + std::to_string(pl.lag_batches_now) +
           ",\"lag_us\":" + std::to_string(pl.lag_us_now) +
           ",\"view_run\":" + hist_json(pl.view_run) +
           ",\"stream_flush\":" + hist_json(pl.stream_flush) +
           ",\"cpu_nanos\":" + std::to_string(rc->cpu_nanos()) +
           ",\"pages_read\":" + std::to_string(rc->pages_read()) +
           ",\"bytes_alloc\":" + std::to_string(rc->bytes_alloc()) + "}";
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

void Service::MaintenanceLoop() {
  for (;;) {
    PendingBatch batch;
    {
      std::unique_lock<TimedMutex> ql(*queue_mu_);
      queue_cv_.wait(ql, [&] {
        return stop_thread_ || (!queue_.empty() && !paused_);
      });
      if (queue_.empty()) {
        if (stop_thread_) break;
        continue;
      }
      // A drain overrides a test-hook pause: queued work always
      // finishes before the thread exits.
      if (paused_ && !stop_thread_) continue;
      batch = std::move(queue_.front());
      queue_.pop_front();
      // `queue_wait` ends here; ApplyOneBatch starts `apply` from this
      // same time point so no dequeue-to-apply time goes unattributed.
      batch.dequeued_at = std::chrono::steady_clock::now();
      applying_ = true;
      // Gauge keeps the status-op semantics: queued + in-flight.
      queue_depth_gauge_->Set(static_cast<int64_t>(queue_.size() + 1));
      space_cv_.notify_all();
    }
    ApplyOneBatch(std::move(batch));
    {
      std::lock_guard<TimedMutex> ql(*queue_mu_);
      applying_ = false;
      queue_depth_gauge_->Set(static_cast<int64_t>(queue_.size()));
    }
    queue_cv_.notify_all();
    space_cv_.notify_all();
  }
}

void Service::ApplyOneBatch(PendingBatch batch) {
  TraceSpan apply_span("serve.apply", "serve",
                       static_cast<int64_t>(batch.trace_id));
  TraceFlowStep("serve.batch", "serve", batch.trace_id);
  stage_queue_wait_->Record(
      MicrosBetween(batch.enqueued_at, batch.dequeued_at));

  std::lock_guard<std::mutex> lock(mu_);
  auto ts_or = primary_->ApplyMutations(batch.ops);
  if (!ts_or.ok()) {
    // Validation in Ingest() makes this unreachable short of storage
    // failure; the batch is lost but the service stays up.
    ITG_LOG(Error) << "serve: primary ApplyMutations failed: "
                   << ts_or.status().ToString();
    return;
  }
  GlobalLiveStatus().SetDeltaSeq(*ts_or);
  last_applied_seq_ = batch.seq;

  // `cursor` walks the stage boundaries: each stage's end time point is
  // the next stage's start, so per-stage samples tile the batch's
  // end-to-end latency exactly (modulo microsecond truncation).
  auto cursor = std::chrono::steady_clock::now();
  const uint64_t apply_us = MicrosBetween(batch.dequeued_at, cursor);
  stage_apply_->Record(apply_us);

  // Per-view stage breakdown retained for the slow-batch log.
  struct ViewTimes {
    std::string name;
    uint64_t run_us = 0;
    uint64_t flush_us = 0;
  };
  std::vector<ViewTimes> view_times;
  const bool slow_log_armed = options_.slow_batch_ms != 0;

  std::vector<std::string> broken;
  for (auto& [name, query] : queries_) {
    auto& pl = query->pipeline();
    Response delta;
    Status s;
    {
      // The view's incremental supersteps run inside this span, so the
      // engine's own phase spans nest under serve.view_run in the trace.
      TraceSpan run_span("serve.view_run", "serve",
                         static_cast<int64_t>(batch.trace_id));
      TraceFlowStep("serve.batch", "serve", batch.trace_id);
      s = query->ApplyBatch(batch.ops, &delta);
    }
    if (!s.ok()) {
      ITG_LOG(Error) << "serve: view '" << name
                     << "' failed incremental maintenance, dropping it: "
                     << s.ToString();
      broken.push_back(name);
      cursor = std::chrono::steady_clock::now();
      continue;
    }
    const auto run_end = std::chrono::steady_clock::now();
    const uint64_t run_us = MicrosBetween(cursor, run_end);
    pl.view_run->Record(run_us);

    delta.seq = batch.seq;
    delta.trace_id = batch.trace_id;
    // The wire latency is ingest entry -> message build: a message
    // cannot contain the time it takes to flush itself. The end-to-end
    // histogram below does include the flush.
    delta.latency_us = MicrosBetween(batch.ingest_start, run_end);
    {
      TraceSpan flush_span("serve.stream_flush", "serve",
                           static_cast<int64_t>(batch.trace_id));
      TraceFlowStep("serve.batch", "serve", batch.trace_id);
      auto sub_it = subscribers_.find(name);
      if (sub_it != subscribers_.end()) {
        for (const Subscriber& sub : sub_it->second) {
          sub.sink(delta);
          delta_messages_->Increment();
        }
      }
    }
    const auto flush_end = std::chrono::steady_clock::now();
    const uint64_t flush_us = MicrosBetween(run_end, flush_end);
    pl.stream_flush->Record(flush_us);
    pl.delta_latency->Record(MicrosBetween(batch.ingest_start, flush_end));
    pl.applied_seq = batch.seq;
    pl.applied_ingest_time = batch.ingest_start;
    UpdateViewLagLocked(query.get());
    if (slow_log_armed) view_times.push_back({name, run_us, flush_us});
    cursor = flush_end;
  }
  TraceFlowEnd("serve.batch", "serve", batch.trace_id);

  for (const std::string& name : broken) {
    auto it = queries_.find(name);
    if (it != queries_.end()) {
      const std::vector<std::string> series =
          it->second->MetricSeriesNames();
      queries_.erase(it);
      RetireViewSeriesLocked(series);
    }
    subscribers_.erase(name);
  }
  if (!broken.empty()) {
    standing_queries_gauge_->Set(static_cast<int64_t>(queries_.size()));
  }

  const uint64_t total_us = MicrosBetween(batch.ingest_start, cursor);
  if (slow_log_armed && total_us > options_.slow_batch_ms * 1000) {
    slow_batches_->Increment();
    std::string msg = "serve: slow batch seq=" + std::to_string(batch.seq) +
                      " trace_id=" + std::to_string(batch.trace_id) +
                      " total_us=" + std::to_string(total_us) +
                      " validate_us=" +
                      std::to_string(MicrosBetween(batch.ingest_start,
                                                   batch.enqueued_at)) +
                      " queue_wait_us=" +
                      std::to_string(MicrosBetween(batch.enqueued_at,
                                                   batch.dequeued_at)) +
                      " apply_us=" + std::to_string(apply_us) + " views=[";
    for (size_t i = 0; i < view_times.size(); ++i) {
      if (i != 0) msg += ", ";
      msg += view_times[i].name +
             " run_us=" + std::to_string(view_times[i].run_us) +
             " flush_us=" + std::to_string(view_times[i].flush_us);
    }
    msg += "]";
    ITG_LOG(Warn) << msg;
    FlightRecorder::Global().DumpToLog("slow batch");
  }
}

// ---------------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------------

void Service::Drain() {
  uint64_t last_issued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      // Second Drain (destructor after an explicit call): fall through
      // to the join below, which is a no-op once the thread stopped.
      last_issued = next_seq_ - 1;
    } else {
      draining_ = true;
      last_issued = next_seq_ - 1;
      ITG_LOG(Info) << "serve: draining (" << queries_.size()
                    << " standing queries)";
    }
  }
  {
    std::unique_lock<TimedMutex> ql(*queue_mu_);
    paused_ = false;
    // Wait for every issued ticket to be enqueued and every queued
    // batch to clear the in-flight window.
    queue_cv_.wait(ql, [&] {
      return next_ticket_ > last_issued && queue_.empty() && !applying_;
    });
    stop_thread_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();
}

bool Service::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

size_t Service::standing_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.size();
}

uint64_t Service::backpressure_stalls() const {
  return backpressure_stalls_->value();
}

uint64_t Service::ingest_batches() const {
  return ingest_batches_->value();
}

uint64_t Service::MakeTraceId(uint64_t seq) const {
  return trace_id_base_ | (seq & 0xFFFFFFFFull);
}

void Service::BindViewPipelineLocked(StandingQuery* query) {
  const std::string& n = query->name();
  auto& pl = query->pipeline();
  pl.delta_latency = registry_->histogram("serve.delta_latency_us." + n);
  pl.view_run =
      registry_->histogram("serve.stage_latency_us.view_run." + n);
  pl.stream_flush =
      registry_->histogram("serve.stage_latency_us.stream_flush." + n);
  pl.lag_batches = registry_->gauge("serve.view_lag_batches." + n);
  pl.lag_us = registry_->gauge("serve.view_lag_us." + n);
  pl.budget_used = registry_->gauge("serve.budget_used_bytes." + n);
  // The view replicated the primary at the last applied batch, so
  // anything still queued counts as lag until maintenance catches up.
  // The time reference starts at the newest ingest (lag_us reads 0
  // until the next apply corrects it — a one-batch approximation).
  pl.applied_seq = last_applied_seq_;
  pl.applied_ingest_time = last_ingest_time_;
  UpdateViewLagLocked(query);
}

void Service::RetireViewSeriesLocked(
    const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    // A series may legitimately be any kind — or absent, if the view
    // never recorded. Exact-name removal only: prefix matching would
    // also retire a sibling view ("q1" is a prefix of "q10").
    if (!registry_->RemoveHistogram(name) &&
        !registry_->RemoveGauge(name)) {
      registry_->RemoveCounter(name);
    }
  }
}

void Service::UpdateViewLagLocked(StandingQuery* query) {
  auto& pl = query->pipeline();
  // A view registered before the first ingest has no applied-batch time
  // reference yet; the stream effectively starts at the newest ingest,
  // so anchor there instead of the epoch-zero default (which would read
  // as machine uptime the moment the view falls behind).
  if (pl.applied_ingest_time == std::chrono::steady_clock::time_point{}) {
    pl.applied_ingest_time = last_ingest_time_;
  }
  const uint64_t lag_batches = pl.applied_seq >= last_ingested_seq_
                                   ? 0
                                   : last_ingested_seq_ - pl.applied_seq;
  const uint64_t lag_us =
      lag_batches == 0
          ? 0
          : MicrosBetween(pl.applied_ingest_time, last_ingest_time_);
  pl.lag_batches_now = lag_batches;
  pl.lag_us_now = lag_us;
  pl.lag_batches->Set(static_cast<int64_t>(lag_batches));
  pl.lag_us->Set(static_cast<int64_t>(lag_us));
  pl.budget_used->Set(static_cast<int64_t>(query->budget().used_bytes()));
}

void Service::SetMaintenancePaused(bool paused) {
  {
    std::lock_guard<TimedMutex> ql(*queue_mu_);
    paused_ = paused;
  }
  queue_cv_.notify_all();
}

}  // namespace serve
}  // namespace itg
