#ifndef STRUCTURA_SERVE_FRONTEND_H_
#define STRUCTURA_SERVE_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/circuit_breaker.h"
#include "serve/counters.h"
#include "serve/degradation.h"
#include "serve/health.h"
#include "serve/request_context.h"

namespace structura::serve {

/// Request-serving frontend: the overload-policy layer between callers
/// and the query operators (keyword, structured, hybrid, translate, …).
///
/// Responsibilities:
///  - **Admission control.** Work is dispatched onto a bounded
///    ThreadPool; when the queue is full the request is shed
///    *immediately* with kUnavailable — the caller is never blocked
///    behind a queue it cannot see. Requests that sat queued longer
///    than `max_queue_wait_ms` are shed at dequeue instead of running
///    with an already-blown latency budget.
///  - **Priority brownout.** Each RequestContext carries a Priority
///    tier; batch and background requests are only admitted while the
///    queue is below their tier's share (DegradationPolicy), so under
///    overload or ill health the lower tiers are shed first and
///    interactive traffic keeps its latency budget.
///  - **Per-operator circuit breakers.** Consecutive operator failures
///    open the breaker and traffic to that operator fails fast with
///    kUnavailable until a cooldown passes and a probe succeeds.
///  - **Fallback ladder.** An operator may name a fallback
///    (SetFallback): when the primary's breaker refuses a request — or
///    its tagged subsystem is critical in the health model — the
///    request is served by the fallback instead, and the answer is
///    explicitly marked degraded through ctx.response. A degraded
///    answer is a contract, never a silent substitution — so the
///    ladder only runs for requests that allocated ctx.response; the
///    rest get the primary's refusal. While a
///    subsystem is critical a trickle of canary requests still attempts
///    the primary, so the evidence needed to clear the verdict (breaker
///    probes, fresh successes) keeps flowing.
///  - **Read-only brownout.** Operators marked as writes (MarkWrite)
///    are refused with kUnavailable while the `read_only_gate` health
///    subsystem (default "storage.disk") is critical — reads keep
///    serving off the durable prefix while the storage layer heals.
///    The refusal is counted (read_only_refused) and, when the request
///    carries a response channel, explained through ctx.response.
///  - **Health signals.** When Options::health is set, the frontend
///    feeds it: per-subsystem breaker aggregates for every subsystem
///    named via TagOperator, plus a "serve" admission-queue signal.
///    ~Frontend detaches these registrations (draining any in-flight
///    evaluation) before the breakers and counters are destroyed, so a
///    watchdog evaluating concurrently can never touch freed state.
///  - **Retries.** Retryable operator failures are re-attempted with
///    jittered exponential backoff (1 ms, doubling, at most 16 ms),
///    charged against the request's retry budget and clipped to its
///    deadline.
///
/// Every submitted request resolves to exactly one Status: OK,
/// kDeadlineExceeded, kCancelled, or kUnavailable (plus kNotFound for
/// unregistered operators). Counters reconcile globally and per tier:
/// admitted + shed + not_found == issued, and every admitted request
/// resolves.
///
/// The failpoint sites `serve.op` and `serve.op.<name>` are evaluated
/// before each handler attempt (fallback attempts included), so tests
/// can drive breakers, retries, and the fallback ladder without
/// touching the operators themselves.
class Frontend {
 public:
  struct Options {
    size_t num_threads = 4;
    /// Queue bound for admission control (tasks waiting, not running).
    size_t max_queue_depth = 64;
    /// Requests queued longer than this are shed at dequeue.
    uint64_t max_queue_wait_ms = 50;
    CircuitBreaker::Options breaker;
    /// When false the queue is unbounded and queued-wait shedding is
    /// off — the "no overload policy" baseline bench_e15 compares
    /// against. Breakers, retries, and brownout-free admission stay
    /// active.
    bool shed_enabled = true;
    /// Brownout thresholds for the batch/background tiers (evaluated
    /// against max_queue_depth; inert when shed_enabled is false).
    DegradationPolicy::Options brownout;
    /// Health model to feed (breaker aggregates per tagged subsystem,
    /// admission-queue state) and to consult for fallback decisions.
    /// Optional; must outlive the frontend. The frontend detaches all
    /// of its registrations in its destructor.
    HealthModel* health = nullptr;
    /// Health subsystem gating write operators (see MarkWrite). While
    /// this subsystem is critical the frontend is in read-only
    /// brownout: writes are refused with kUnavailable (reads keep
    /// serving), and the refusal reason travels through ctx.response.
    /// Empty disables the gate; inert without Options::health.
    std::string read_only_gate = "storage.disk";
    /// Time source for queue-wait accounting, retry backoff, and the
    /// per-operator breaker timers. nullptr = real time; a
    /// SimulatedClock makes backoff and cooldowns instantaneous and
    /// deterministic under test.
    structura::Clock* clock = nullptr;
  };

  /// An operator handler: does the work, honours ctx.interrupt, returns
  /// its Status. Must be thread-safe — the pool invokes it concurrently.
  using Handler = std::function<Status(const RequestContext&)>;

  explicit Frontend(Options options);
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;
  /// Detaches health-model registrations (draining any in-flight
  /// watchdog evaluation), then drains queued requests (their futures
  /// all resolve).
  ~Frontend();

  /// Registers an operator. Call before serving traffic; names are
  /// stable for the frontend's lifetime.
  void RegisterOperator(const std::string& name, Handler handler);

  /// Tags an operator as belonging to a health subsystem (e.g.
  /// "query.keyword", "storage.wal"). When Options::health is set, the
  /// frontend registers one breaker-aggregate signal per distinct
  /// subsystem: all tagged breakers closed → healthy, any open or
  /// half-open → degraded, all open → critical. Call during setup,
  /// before serving traffic.
  void TagOperator(const std::string& name, const std::string& subsystem);

  /// Marks an operator as a *write*: it mutates durable storage, so it
  /// is refused (kUnavailable, counted as read_only_refused) while the
  /// `read_only_gate` subsystem is critical — the read-only brownout.
  /// Reads are never gated. Call during setup, before serving traffic.
  void MarkWrite(const std::string& name);

  /// Names `fallback` as the reduced-fidelity stand-in for `primary`
  /// (e.g. hybrid → keyword-only). Both operators must already be
  /// registered. The fallback runs when the primary's breaker refuses
  /// a request or its subsystem is critical; answers served this way
  /// are marked degraded via ctx.response and counted. Requests that
  /// carry no ctx.response never take the ladder — without the channel
  /// the degraded flag cannot be delivered, and serving the fallback
  /// anyway would be a silent substitution.
  void SetFallback(const std::string& primary, const std::string& fallback);

  /// Dispatches a request. Never blocks the caller: the future is
  /// either queued work or an immediately-resolved shed decision.
  std::future<Status> Submit(const std::string& op, RequestContext ctx);

  /// Convenience: Submit + wait.
  Status Call(const std::string& op, RequestContext ctx);

  /// Blocks until every submitted request has resolved.
  void WaitIdle();

  /// This frontend's own serving counters (its registry; see metrics_).
  ServingCounters Counters() const;
  CircuitBreaker::State BreakerState(const std::string& op) const;

 private:
  struct Operator {
    Handler handler;
    CircuitBreaker breaker;
    /// Interned copy of the operator name, usable as a span name.
    const char* span_name = "";
    /// Health subsystem this operator's breaker feeds ("" = untagged).
    std::string subsystem;
    /// Operator to serve through when this one's breaker refuses.
    std::string fallback;
    /// True for operators that mutate durable storage (MarkWrite):
    /// refused while the read_only_gate subsystem is critical.
    bool is_write = false;
    /// Requests seen while the subsystem was critical; every Nth one is
    /// let through to the primary as a recovery canary (see Run()).
    std::atomic<uint64_t> canary{0};
    /// Per-dimension cost rollup histograms
    /// (serve.op.<name>.cost.<dim>), cached at registration.
    std::array<obs::Histogram*, obs::kNumCostDims> cost_hist{};

    explicit Operator(CircuitBreaker::Options bopts) : breaker(bopts) {}
  };

  /// Runs on a pool worker: Run() under the request's root span and
  /// cost context, then records its latency and cost and resolves
  /// `done` — in that order, so a caller sees its own request counted.
  void Execute(Operator* op, const std::string& op_name,
               const RequestContext& ctx, int64_t enqueued_at_nanos,
               std::promise<Status>* done);

  /// The request's fate: queued-wait shedding, read-only and health
  /// gates, breaker check, failpoint + handler, retry loop, fallback.
  Status Run(Operator* op, const std::string& op_name,
             const RequestContext& ctx, int64_t waited_nanos);

  /// One handler attempt: the `serve.op` and `serve.op.<name>`
  /// failpoints, then the handler, its cpu time charged to the request.
  Status Attempt(Operator* op, const std::string& op_name,
                 const RequestContext& ctx);

  /// Attempts the fallback ladder for `primary` (reason: `why`).
  /// Returns the request's final status when the ladder settled it
  /// (served degraded, or the fallback attempt itself terminated the
  /// request); nullopt when no fallback is available and the normal
  /// refusal path should run.
  std::optional<Status> TryFallback(Operator* primary,
                                    const RequestContext& ctx,
                                    const std::string& why);

  void Resolve(std::promise<Status>* done, Status s);

  /// Breaker aggregate over operators tagged with `subsystem`.
  HealthSample BreakerSignal(const std::string& subsystem) const;
  /// Admission-queue fill signal for the "serve" subsystem.
  HealthSample AdmissionSignal() const;

  Options options_;
  structura::Clock* clock_;

  mutable std::mutex ops_mutex_;
  std::map<std::string, std::unique_ptr<Operator>> ops_;
  std::vector<std::string> op_order_;

  // Serving counters and histograms (serve.requests.*, serve.request.*,
  // serve.queue.*, serve.op.*) live in this frontend's own registry,
  // summed into obs::MetricsRegistry::Default() while it lives and
  // folded into it at destruction; the members below are cached
  // handles. Destroyed after pool_, so the pool-drained Execute() tasks
  // may safely bump them during teardown.
  obs::MetricsRegistry metrics_{&obs::MetricsRegistry::Default()};
  obs::Counter* issued_ = metrics_.GetCounter("serve.requests.issued");
  obs::Counter* admitted_ = metrics_.GetCounter("serve.requests.admitted");
  obs::Counter* shed_ = metrics_.GetCounter("serve.requests.shed");
  obs::Counter* not_found_ = metrics_.GetCounter("serve.requests.not_found");
  obs::Counter* ok_ = metrics_.GetCounter("serve.requests.ok");
  obs::Counter* deadline_exceeded_ =
      metrics_.GetCounter("serve.requests.deadline_exceeded");
  obs::Counter* cancelled_ = metrics_.GetCounter("serve.requests.cancelled");
  obs::Counter* unavailable_ =
      metrics_.GetCounter("serve.requests.unavailable");
  obs::Counter* shed_queued_wait_ =
      metrics_.GetCounter("serve.requests.shed_queued_wait");
  obs::Counter* breaker_rejected_ =
      metrics_.GetCounter("serve.requests.breaker_rejected");
  obs::Counter* read_only_refused_ =
      metrics_.GetCounter("serve.requests.read_only_refused");
  obs::Counter* shed_brownout_ =
      metrics_.GetCounter("serve.requests.shed_brownout");
  obs::Counter* fallback_served_ =
      metrics_.GetCounter("serve.requests.fallback_served");
  obs::Counter* degraded_answers_ =
      metrics_.GetCounter("serve.requests.degraded_answers");
  obs::Counter* retries_ = metrics_.GetCounter("serve.requests.retries");
  obs::Counter* root_spans_ = metrics_.GetCounter("serve.spans.root");
  /// Per-tier admission counters, indexed by Priority.
  std::array<obs::Counter*, kNumPriorities> tier_issued_{};
  std::array<obs::Counter*, kNumPriorities> tier_admitted_{};
  std::array<obs::Counter*, kNumPriorities> tier_shed_{};
  std::array<obs::Counter*, kNumPriorities> tier_not_found_{};
  obs::Histogram* request_latency_ =
      metrics_.GetHistogram("serve.request.latency_ns");
  obs::Histogram* queue_wait_ = metrics_.GetHistogram("serve.queue.wait_ns");

  /// Brownout admission policy (reads options_.brownout + health).
  DegradationPolicy policy_;
  /// Health-model registration ids owned by this frontend, detached in
  /// the destructor BEFORE any member (breakers, pool) is destroyed.
  /// Guarded by ops_mutex_; keyed by subsystem to avoid duplicates.
  std::map<std::string, uint64_t> health_registrations_;

  // MUST stay the last member: ~ThreadPool drains still-queued Execute()
  // tasks, which dereference ops_ and the counters above. Members are
  // destroyed in reverse declaration order, so the pool (and with it the
  // drain) must go first or destruction with queued work is a
  // use-after-free (FrontendTest.DestructionDrainsQueuedRequests).
  ThreadPool pool_;
};

}  // namespace structura::serve

#endif  // STRUCTURA_SERVE_FRONTEND_H_
