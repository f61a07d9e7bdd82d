#include "core/planner_service.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "core/delta.hpp"
#include "core/delta_incremental.hpp"
#include "core/fra.hpp"
#include "geometry/delaunay.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::core {
namespace {

using Clock = std::chrono::steady_clock;

/// Cached WhatIf base states kept (FIFO eviction).
constexpr std::size_t kBaseStateCapacity = 8;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Shared-metric identity: the exact region bits plus the resolution.
using MetricKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                             std::uint64_t, std::size_t>;

MetricKey metric_key(const num::Rect& region, std::size_t resolution) {
  return {std::bit_cast<std::uint64_t>(region.x0),
          std::bit_cast<std::uint64_t>(region.y0),
          std::bit_cast<std::uint64_t>(region.x1),
          std::bit_cast<std::uint64_t>(region.y1), resolution};
}

/// Cached what-if substrate: the base deployment's triangulation, the
/// running cavity-local δ tracker over it, and the node-index -> vertex-id
/// map the mutation ops address nodes through.  Copyable by design — each
/// WhatIf job mutates a private copy, never the shared original.
struct BaseState {
  geo::Delaunay dt;
  IncrementalDelta inc;
  std::vector<int> vertex_of_node;
};

/// Per-key build slot.  The entry mutex is a leaf lock: the first
/// requester builds the state while holding it (the build's nested
/// parallel loops run inline inside the job's pool chunk, touching no
/// other lock), later requesters block on it and then share the result.
/// This cannot deadlock under the pool's serial inline execution the way
/// a future-based handoff could (a job waiting on a future only a
/// later-ordered job would fulfil).
struct BaseEntry {
  std::mutex mu;
  std::shared_ptr<const BaseState> state;
};

std::uint64_t base_state_key(const WhatIfJob& job) {
  namespace fk = field::fieldkey;
  std::uint64_t key = job.field->key();
  key = fk::combine(key, fk::bits(job.region.x0));
  key = fk::combine(key, fk::bits(job.region.y0));
  key = fk::combine(key, fk::bits(job.region.x1));
  key = fk::combine(key, fk::bits(job.region.y1));
  key = fk::combine(key, job.resolution);
  key = fk::combine(key, static_cast<std::uint64_t>(job.policy));
  for (const auto& p : job.base->positions) {
    key = fk::combine(key, fk::bits(p.x));
    key = fk::combine(key, fk::bits(p.y));
  }
  return key;
}

}  // namespace

struct PlannerService::Impl {
  struct Pending {
    std::variant<ScoreJob, PlanJob, WhatIfJob> job;
    std::promise<JobResult> promise;
    Clock::time_point submitted;
  };

  explicit Impl(const Config& config) : config(config) {
    if (this->config.max_batch == 0) this->config.max_batch = 1;
    // Queue occupancy is timing-dependent; keep it out of the timeline's
    // bit-identical JSONL no matter when a consumer arms it.
    obs::registry().exclude_from_timeline("service.queue.depth");
    dispatcher = std::thread([this] { dispatch_loop(); });
  }

  ~Impl() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
    dispatcher.join();
  }

  std::future<JobResult> enqueue(
      std::variant<ScoreJob, PlanJob, WhatIfJob>&& job) {
    Pending pending;
    pending.job = std::move(job);
    pending.submitted = Clock::now();
    std::future<JobResult> future = pending.promise.get_future();
    [[maybe_unused]] std::size_t depth = 0;  // Feeds only the gauge.
    {
      const std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(pending));
      depth = queue.size();
    }
    submitted.fetch_add(1, std::memory_order_relaxed);
    CPS_COUNT("service.jobs.submitted", 1);
    CPS_GAUGE("service.queue.depth", depth);
    cv.notify_one();
    return future;
  }

  void dispatch_loop() {
    for (;;) {
      std::vector<Pending> batch;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return stop || !queue.empty(); });
        if (queue.empty()) break;  // stop requested and fully drained.
        const std::size_t n = std::min(queue.size(), config.max_batch);
        batch.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          batch.push_back(std::move(queue.front()));
          queue.pop_front();
        }
        in_flight += n;
        CPS_GAUGE("service.queue.depth", queue.size());
      }
      batches.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t high = max_batch_size.load(std::memory_order_relaxed);
      while (high < batch.size() &&
             !max_batch_size.compare_exchange_weak(
                 high, batch.size(), std::memory_order_relaxed)) {
      }
      // One parallel region, one job per chunk.  A job's own parallel
      // loops nest inline on its worker with the pool's fixed chunk
      // layout, which is what makes results bit-identical to direct
      // calls (see the header's determinism contract).
      par::parallel_for(
          batch.size(), [&](std::size_t i) { execute(batch[i]); },
          /*grain=*/1);
      {
        const std::lock_guard<std::mutex> lock(mu);
        in_flight -= batch.size();
        if (queue.empty() && in_flight == 0) idle_cv.notify_all();
      }
    }
  }

  void execute(Pending& pending) {
    const Clock::time_point start = Clock::now();
    JobResult result;
    try {
      std::visit([&](auto& job) { run_job(job, result); }, pending.job);
    } catch (const std::exception& e) {
      result.ok = false;
      result.error = e.what();
    } catch (...) {
      result.ok = false;
      result.error = "unknown error";
    }
    if (!result.ok) errors.fetch_add(1, std::memory_order_relaxed);
    const Clock::time_point end = Clock::now();
    result.exec_ms = ms_between(start, end);
    result.latency_ms = ms_between(pending.submitted, end);
    completed.fetch_add(1, std::memory_order_relaxed);
    CPS_COUNT("service.jobs.completed", 1);
#if defined(CPS_OBS_ENABLED)
    if (obs::enabled()) {
      static const char* const kJobHist[] = {"service.job.score_us",
                                             "service.job.plan_us",
                                             "service.job.whatif_us"};
      obs::registry()
          .duration_histogram(kJobHist[pending.job.index()])
          .observe(result.exec_ms * 1000.0);
    }
#endif
    pending.promise.set_value(std::move(result));
  }

  void run_job(ScoreJob& job, JobResult& result) {
    if (job.field == nullptr) {
      throw std::invalid_argument("ScoreJob: null field snapshot");
    }
    score_jobs.fetch_add(1, std::memory_order_relaxed);
    CPS_COUNT("service.jobs.score", 1);
    result.delta = metric_for(job.region, job.resolution)
                       .delta_of_deployment(job.field->field(),
                                            job.deployment.positions,
                                            job.policy);
  }

  void run_job(PlanJob& job, JobResult& result) {
    if (job.field == nullptr) {
      throw std::invalid_argument("PlanJob: null field snapshot");
    }
    plan_jobs.fetch_add(1, std::memory_order_relaxed);
    CPS_COUNT("service.jobs.plan", 1);
    const field::Field& reference = job.field->field();
    Deployment deployment;
    switch (job.planner) {
      case PlannerKind::kFra:
        deployment = FraPlanner().plan(reference, job.request);
        break;
      case PlannerKind::kRandom:
        deployment = RandomPlanner().plan(reference, job.request);
        break;
      case PlannerKind::kGrid:
        deployment = GridPlanner().plan(reference, job.request);
        break;
      case PlannerKind::kFarthestPoint:
        deployment = FarthestPointPlanner().plan(reference, job.request);
        break;
    }
    if (job.score_resolution != 0) {
      result.delta = metric_for(job.request.region, job.score_resolution)
                         .delta_of_deployment(reference, deployment.positions,
                                              job.policy);
    }
    result.deployment = std::move(deployment);
  }

  void run_job(WhatIfJob& job, JobResult& result) {
    if (job.field == nullptr) {
      throw std::invalid_argument("WhatIfJob: null field snapshot");
    }
    if (job.base == nullptr) {
      throw std::invalid_argument("WhatIfJob: null base deployment");
    }
    whatif_jobs.fetch_add(1, std::memory_order_relaxed);
    CPS_COUNT("service.jobs.whatif", 1);
    const std::shared_ptr<const BaseState> base = base_state_for(job);
    BaseState local(*base);  // Private copy; the shared base never mutates.
    const field::Field& reference = job.field->field();
    switch (job.op) {
      case WhatIfJob::Op::kMove: {
        const auto report = local.dt.move_vertex(
            node_vertex(local, job.node), job.to, reference.value(job.to));
        local.inc.apply(local.dt, report);
        break;
      }
      case WhatIfJob::Op::kInsert: {
        const auto report = local.dt.insert(job.to, reference.value(job.to));
        local.inc.apply(local.dt, report);
        break;
      }
      case WhatIfJob::Op::kRemove: {
        const auto report = local.dt.remove(node_vertex(local, job.node));
        local.inc.apply(local.dt, report);
        break;
      }
    }
    result.delta = local.inc.value();
  }

  static int node_vertex(const BaseState& state, std::size_t node) {
    if (node >= state.vertex_of_node.size()) {
      throw std::invalid_argument("WhatIfJob: node index out of range");
    }
    return state.vertex_of_node[node];
  }

  DeltaMetric& metric_for(const num::Rect& region, std::size_t resolution) {
    const MetricKey key = metric_key(region, resolution);
    const std::lock_guard<std::mutex> lock(metrics_mu);
    std::unique_ptr<DeltaMetric>& slot = metrics[key];
    if (slot == nullptr) {
      slot = std::make_unique<DeltaMetric>(region, resolution);
    }
    return *slot;  // Map nodes are stable; the metric itself never moves.
  }

  std::shared_ptr<const BaseState> base_state_for(const WhatIfJob& job) {
    const std::uint64_t key = base_state_key(job);
    std::shared_ptr<BaseEntry> entry;
    {
      const std::lock_guard<std::mutex> lock(base_mu);
      auto it = base_entries.find(key);
      if (it == base_entries.end()) {
        entry = std::make_shared<BaseEntry>();
        base_entries.emplace(key, entry);
        base_order.push_back(key);
        while (base_order.size() > kBaseStateCapacity) {
          base_entries.erase(base_order.front());
          base_order.pop_front();
        }
      } else {
        entry = it->second;
      }
    }
    const std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->state == nullptr) {
      base_state_misses.fetch_add(1, std::memory_order_relaxed);
      CPS_COUNT("service.base_state.misses", 1);
      entry->state = build_base_state(job);
    } else {
      base_state_hits.fetch_add(1, std::memory_order_relaxed);
      CPS_COUNT("service.base_state.hits", 1);
    }
    return entry->state;
  }

  std::shared_ptr<const BaseState> build_base_state(const WhatIfJob& job) {
    const field::Field& reference = job.field->field();
    const std::vector<Sample> samples =
        take_samples(reference, job.base->positions);
    std::vector<int> vertex_of_node;
    geo::Delaunay dt = reconstruct_surface(samples, job.region, job.policy,
                                           &reference, &vertex_of_node);
    IncrementalDelta inc(metric_for(job.region, job.resolution), reference,
                         dt);
    return std::make_shared<const BaseState>(BaseState{
        std::move(dt), std::move(inc), std::move(vertex_of_node)});
  }

  Config config;

  mutable std::mutex mu;
  std::condition_variable cv;
  std::condition_variable idle_cv;
  std::deque<Pending> queue;
  std::size_t in_flight = 0;
  bool stop = false;
  std::thread dispatcher;

  std::mutex snapshots_mu;
  std::map<std::uint64_t, FieldSnapshotPtr> snapshots;

  std::mutex metrics_mu;
  std::map<MetricKey, std::unique_ptr<DeltaMetric>> metrics;

  std::mutex base_mu;
  std::map<std::uint64_t, std::shared_ptr<BaseEntry>> base_entries;
  std::deque<std::uint64_t> base_order;  // FIFO eviction order.

  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> score_jobs{0};
  std::atomic<std::uint64_t> plan_jobs{0};
  std::atomic<std::uint64_t> whatif_jobs{0};
  std::atomic<std::uint64_t> snapshot_hits{0};
  std::atomic<std::uint64_t> snapshot_misses{0};
  std::atomic<std::uint64_t> base_state_hits{0};
  std::atomic<std::uint64_t> base_state_misses{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> max_batch_size{0};
};

PlannerService::PlannerService() : PlannerService(Config{}) {}

PlannerService::PlannerService(Config config)
    : config_(config), impl_(std::make_unique<Impl>(config)) {
  config_ = impl_->config;  // Reflect the clamped values.
}

PlannerService::~PlannerService() = default;

FieldSnapshotPtr PlannerService::intern(
    std::shared_ptr<const field::Field> field) {
  auto snapshot = std::make_shared<const FieldSnapshot>(std::move(field));
  const std::lock_guard<std::mutex> lock(impl_->snapshots_mu);
  auto it = impl_->snapshots.find(snapshot->key());
  if (it != impl_->snapshots.end()) {
    impl_->snapshot_hits.fetch_add(1, std::memory_order_relaxed);
    CPS_COUNT("service.snapshot.hits", 1);
    return it->second;
  }
  impl_->snapshot_misses.fetch_add(1, std::memory_order_relaxed);
  CPS_COUNT("service.snapshot.misses", 1);
  impl_->snapshots.emplace(snapshot->key(), snapshot);
  return snapshot;
}

std::future<JobResult> PlannerService::submit(ScoreJob job) {
  return impl_->enqueue(std::move(job));
}

std::future<JobResult> PlannerService::submit(PlanJob job) {
  return impl_->enqueue(std::move(job));
}

std::future<JobResult> PlannerService::submit(WhatIfJob job) {
  return impl_->enqueue(std::move(job));
}

void PlannerService::prewarm(const FieldSnapshotPtr& field,
                             const num::Rect& region,
                             std::size_t resolution) {
  if (field == nullptr) {
    throw std::invalid_argument("prewarm: null field snapshot");
  }
  // reference_lattice fills (or touches) the shared cache entry; the
  // returned pin is dropped — the cache keeps the buffer alive.
  impl_->metric_for(region, resolution).reference_lattice(field->field());
}

void PlannerService::wait_idle() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->idle_cv.wait(lock, [this] {
    return impl_->queue.empty() && impl_->in_flight == 0;
  });
}

std::size_t PlannerService::queue_depth() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->queue.size();
}

PlannerService::Stats PlannerService::stats() const {
  Stats s;
  s.submitted = impl_->submitted.load(std::memory_order_relaxed);
  s.completed = impl_->completed.load(std::memory_order_relaxed);
  s.errors = impl_->errors.load(std::memory_order_relaxed);
  s.score_jobs = impl_->score_jobs.load(std::memory_order_relaxed);
  s.plan_jobs = impl_->plan_jobs.load(std::memory_order_relaxed);
  s.whatif_jobs = impl_->whatif_jobs.load(std::memory_order_relaxed);
  s.snapshot_hits = impl_->snapshot_hits.load(std::memory_order_relaxed);
  s.snapshot_misses = impl_->snapshot_misses.load(std::memory_order_relaxed);
  s.base_state_hits = impl_->base_state_hits.load(std::memory_order_relaxed);
  s.base_state_misses =
      impl_->base_state_misses.load(std::memory_order_relaxed);
  s.batches = impl_->batches.load(std::memory_order_relaxed);
  s.max_batch_size = impl_->max_batch_size.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cps::core
