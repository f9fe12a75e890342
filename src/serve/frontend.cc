#include "serve/frontend.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/strings.h"
#include "obs/trace.h"

namespace structura::serve {
namespace {

/// Under a critical subsystem verdict, one request in this many still
/// attempts the primary operator (the rest go straight to the
/// fallback). See the canary comment in Run().
constexpr uint64_t kCriticalCanaryEvery = 8;

/// Backoff before retry k (1-based): jittered
/// kRetryBaseMs * kRetryMultiplier^(k-1), capped at kRetryMaxMs and at
/// the request's remaining deadline.
constexpr double kRetryBaseMs = 1;
constexpr double kRetryMultiplier = 2.0;
constexpr double kRetryMaxMs = 16;
/// Seeds each request's jitter stream, mixed with the request id.
constexpr uint64_t kRetryJitterSeed = 1;

}  // namespace

std::string ServingCounters::ToString() const {
  std::string out = StrFormat(
      "issued=%llu admitted=%llu shed=%llu (brownout=%llu) not_found=%llu "
      "ok=%llu (degraded=%llu) deadline_exceeded=%llu "
      "cancelled=%llu unavailable=%llu (queued_wait=%llu breaker=%llu "
      "read_only=%llu) "
      "fallback_served=%llu retries=%llu root_spans=%llu queue_high_water=%llu",
      static_cast<unsigned long long>(issued),
      static_cast<unsigned long long>(admitted),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(shed_brownout),
      static_cast<unsigned long long>(not_found),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(degraded_answers),
      static_cast<unsigned long long>(deadline_exceeded),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(unavailable),
      static_cast<unsigned long long>(shed_queued_wait),
      static_cast<unsigned long long>(breaker_rejected),
      static_cast<unsigned long long>(read_only_refused),
      static_cast<unsigned long long>(fallback_served),
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(root_spans),
      static_cast<unsigned long long>(queue_high_water));
  out += "; tiers:";
  for (size_t t = 0; t < kNumPriorities; ++t) {
    out += StrFormat(" %s(issued=%llu admitted=%llu shed=%llu nf=%llu)",
                     PriorityName(static_cast<Priority>(t)),
                     static_cast<unsigned long long>(tiers[t].issued),
                     static_cast<unsigned long long>(tiers[t].admitted),
                     static_cast<unsigned long long>(tiers[t].shed),
                     static_cast<unsigned long long>(tiers[t].not_found));
  }
  if (!breakers.empty()) {
    out += "; breakers:";
    for (const auto& [op, state] : breakers) {
      out += StrFormat(" %s(%s)", op.c_str(), state.c_str());
    }
  }
  return out;
}

Frontend::Frontend(Options options)
    : options_(options),
      clock_(structura::Clock::OrReal(options.clock)),
      policy_(options.brownout, options.health),
      pool_(options.num_threads,
            options.shed_enabled ? options.max_queue_depth : 0) {
  for (size_t t = 0; t < kNumPriorities; ++t) {
    const std::string prefix = std::string("serve.requests.tier.") +
                               PriorityName(static_cast<Priority>(t));
    tier_issued_[t] = metrics_.GetCounter(prefix + ".issued");
    tier_admitted_[t] = metrics_.GetCounter(prefix + ".admitted");
    tier_shed_[t] = metrics_.GetCounter(prefix + ".shed");
    tier_not_found_[t] = metrics_.GetCounter(prefix + ".not_found");
  }
  pool_.PublishMetrics("serve");
  if (options_.health != nullptr) {
    uint64_t id = options_.health->Register(
        "serve", "serve.admission", [this] { return AdmissionSignal(); });
    std::lock_guard<std::mutex> lock(ops_mutex_);
    health_registrations_["serve"] = id;
  }
}

Frontend::~Frontend() {
  // Detach every health registration FIRST, before any member is
  // destroyed: Detach blocks until no evaluation is in flight, so after
  // this loop a concurrent watchdog can no longer run BreakerSignal /
  // AdmissionSignal against soon-to-be-freed breakers and pool state.
  // The ids are collected under ops_mutex_ but Detach runs unlocked —
  // the signal fns themselves take ops_mutex_, so detaching while
  // holding it would deadlock against an in-flight evaluation.
  if (options_.health != nullptr) {
    std::vector<uint64_t> ids;
    {
      std::lock_guard<std::mutex> lock(ops_mutex_);
      for (const auto& [subsystem, id] : health_registrations_) {
        if (id != 0) ids.push_back(id);
      }
      health_registrations_.clear();
    }
    for (uint64_t id : ids) options_.health->Detach(id);
  }
  // pool_ (last member) is destroyed first, draining queued Execute()
  // tasks while ops_ and the counters are still alive.
}

void Frontend::RegisterOperator(const std::string& name, Handler handler) {
  std::lock_guard<std::mutex> lock(ops_mutex_);
  CircuitBreaker::Options breaker_options = options_.breaker;
  // Breakers tick on the frontend's clock unless the caller pinned one.
  if (breaker_options.clock == nullptr) breaker_options.clock = clock_;
  const char* span_name = obs::InternName("serve." + name);
  // The breaker stamps its flight-recorder events with the operator it
  // protects.
  breaker_options.name = span_name;
  auto [it, inserted] =
      ops_.emplace(name, std::make_unique<Operator>(breaker_options));
  if (inserted) op_order_.push_back(name);
  it->second->handler = std::move(handler);
  it->second->span_name = span_name;
  for (size_t d = 0; d < obs::kNumCostDims; ++d) {
    it->second->cost_hist[d] = metrics_.GetHistogram(
        "serve.op." + name + ".cost." +
        obs::CostDimName(static_cast<obs::CostDim>(d)));
  }
}

void Frontend::TagOperator(const std::string& name,
                           const std::string& subsystem) {
  bool need_register = false;
  {
    std::lock_guard<std::mutex> lock(ops_mutex_);
    auto it = ops_.find(name);
    if (it == ops_.end()) return;
    it->second->subsystem = subsystem;
    if (options_.health != nullptr &&
        health_registrations_.find(subsystem) == health_registrations_.end()) {
      // Reserve the slot so a concurrent TagOperator for the same
      // subsystem doesn't double-register; the real id lands below.
      health_registrations_[subsystem] = 0;
      need_register = true;
    }
  }
  if (need_register) {
    // Register() may block draining an in-flight evaluation whose
    // signal fns take ops_mutex_ — so it must run unlocked.
    uint64_t id = options_.health->Register(
        subsystem, "serve.breakers",
        [this, subsystem] { return BreakerSignal(subsystem); });
    std::lock_guard<std::mutex> lock(ops_mutex_);
    health_registrations_[subsystem] = id;
  }
}

void Frontend::MarkWrite(const std::string& name) {
  std::lock_guard<std::mutex> lock(ops_mutex_);
  auto it = ops_.find(name);
  if (it != ops_.end()) it->second->is_write = true;
}

void Frontend::SetFallback(const std::string& primary,
                           const std::string& fallback) {
  std::lock_guard<std::mutex> lock(ops_mutex_);
  auto it = ops_.find(primary);
  if (it == ops_.end() || ops_.find(fallback) == ops_.end()) return;
  it->second->fallback = fallback;
}

std::future<Status> Frontend::Submit(const std::string& op_name,
                                     RequestContext ctx) {
  // A Priority forged from an out-of-range int would index the tier
  // counter arrays out of bounds; clamp unknown values to the lowest
  // tier (shed-first is the safe misclassification) so every
  // downstream consumer sees a valid tier.
  if (static_cast<size_t>(ctx.priority) >= kNumPriorities) {
    ctx.priority = Priority::kBackground;
  }
  const size_t tier = static_cast<size_t>(ctx.priority);
  issued_->Increment();
  tier_issued_[tier]->Increment();
  if (ctx.trace_id == 0) ctx.trace_id = obs::NextTraceId();
  auto done = std::make_shared<std::promise<Status>>();
  std::future<Status> fut = done->get_future();

  Operator* op = nullptr;
  {
    std::lock_guard<std::mutex> lock(ops_mutex_);
    auto it = ops_.find(op_name);
    if (it != ops_.end()) op = it->second.get();  // node-stable address
  }
  if (op == nullptr) {
    not_found_->Increment();
    tier_not_found_[tier]->Increment();
    done->set_value(Status::NotFound("no operator " + op_name));
    return fut;
  }

  if (options_.shed_enabled) {
    // Brownout: batch/background tiers only get their share of the
    // queue, shrinking as health worsens — the lower tiers shed first,
    // long before the queue itself is full.
    DegradationPolicy::Decision d = policy_.Admit(
        ctx.priority, pool_.stats().queue_depth, options_.max_queue_depth);
    if (!d.admit) {
      shed_->Increment();
      shed_brownout_->Increment();
      tier_shed_[tier]->Increment();
      done->set_value(Status::Unavailable(std::string("shed: ") + d.reason));
      return fut;
    }
  }

  int64_t enqueued_at_nanos = clock_->NowNanos();
  auto task = [this, op, op_name, ctx = std::move(ctx), enqueued_at_nanos,
               done]() {
    Execute(op, op_name, ctx, enqueued_at_nanos, done.get());
  };
  bool accepted;
  if (options_.shed_enabled) {
    accepted = pool_.TryPost(std::move(task));
  } else {
    pool_.Post(std::move(task));
    accepted = true;
  }
  if (!accepted) {
    // Shed at admission: the caller learns *now* instead of waiting
    // behind a queue that is already past its latency budget.
    shed_->Increment();
    tier_shed_[tier]->Increment();
    done->set_value(Status::Unavailable("shed: queue full"));
    return fut;
  }
  admitted_->Increment();
  tier_admitted_[tier]->Increment();
  return fut;
}

Status Frontend::Call(const std::string& op, RequestContext ctx) {
  return Submit(op, std::move(ctx)).get();
}

void Frontend::WaitIdle() { pool_.WaitIdle(); }

void Frontend::Resolve(std::promise<Status>* done, Status s) {
  switch (s.code()) {
    case StatusCode::kOk:
      ok_->Increment();
      break;
    case StatusCode::kDeadlineExceeded:
      deadline_exceeded_->Increment();
      break;
    case StatusCode::kCancelled:
      cancelled_->Increment();
      break;
    case StatusCode::kUnavailable:
      unavailable_->Increment();
      break;
    default:
      break;
  }
  done->set_value(std::move(s));
}

Status Frontend::Attempt(Operator* op, const std::string& op_name,
                         const RequestContext& ctx) {
  // Failpoint-injected operator errors land here, before the real
  // handler — the hook tests and the chaos harness use to drive
  // breakers and retry paths deterministically.
  STRUCTURA_FAILPOINT("serve.op");
  STRUCTURA_FAILPOINT("serve.op." + op_name);
  TRACE_SPAN("serve.handler");
  ScopedCacheBypass bypass(ctx.no_cache);
  int64_t started_nanos = clock_->NowNanos();
  Status st = op->handler(ctx);
  obs::ChargeCost(obs::CostDim::kCpuNanos,
                  static_cast<uint64_t>(std::max<int64_t>(
                      0, clock_->NowNanos() - started_nanos)));
  return st;
}

std::optional<Status> Frontend::TryFallback(Operator* primary,
                                            const RequestContext& ctx,
                                            const std::string& why) {
  // No response channel means no way to flag the answer as degraded —
  // serving the fallback anyway would be exactly the silent
  // substitution the degraded contract forbids. Let the primary's
  // refusal stand instead.
  if (ctx.response == nullptr) return std::nullopt;
  Operator* fb = nullptr;
  std::string fb_name;
  {
    std::lock_guard<std::mutex> lock(ops_mutex_);
    if (primary->fallback.empty()) return std::nullopt;
    fb_name = primary->fallback;
    auto it = ops_.find(fb_name);
    if (it != ops_.end()) fb = it->second.get();
  }
  if (fb == nullptr) return std::nullopt;
  if (Status s = ctx.interrupt.Check(); !s.ok()) return s;
  uint64_t admission = CircuitBreaker::kCurrentAdmission;
  if (!fb->breaker.Allow(&admission)) {
    // Both rungs of the ladder refused; the caller resolves the
    // original refusal (counted there, not double-counted here).
    return std::nullopt;
  }
  TRACE_SPAN("serve.fallback");
  // The fallback attempt runs through the same failpoint sites as a
  // primary attempt, so chaos reaches it too.
  Status st = Attempt(fb, fb_name, ctx);
  if (st.ok()) {
    fb->breaker.RecordSuccess(admission);
    // The degraded flag is the contract: a fallback-served answer is
    // never silently substituted for the requested operator's answer.
    // (ctx.response is non-null — checked at entry.)
    ctx.response->degraded = true;
    ctx.response->degraded_reason = why;
    ctx.response->served_by = fb_name;
    fallback_served_->Increment();
    degraded_answers_->Increment();
    return Status::OK();
  }
  if (st.code() == StatusCode::kCancelled) {
    fb->breaker.ReleaseProbe(admission);
    return st;
  }
  fb->breaker.RecordFailure(admission);
  if (st.code() == StatusCode::kDeadlineExceeded) return st;
  // Single fallback attempt failed with a retryable error: fall back to
  // the caller's path (primary refusal, or the primary retry loop).
  return std::nullopt;
}

void Frontend::Execute(Operator* op, const std::string& op_name,
                       const RequestContext& ctx, int64_t enqueued_at_nanos,
                       std::promise<Status>* done) {
  // Exactly one root span per admitted request: every Execute() runs
  // under this scope, including the queued-too-long shed path.
  obs::TraceRequestScope root(ctx.trace_id, op->span_name);
  root_spans_->Increment();
  // Install the request's cost accumulator for everything below: charge
  // sites deep in the query/storage layers reach it thread-locally.
  // Frontend-owned accounting lives right here on the stack — a request
  // never pays a heap allocation for it; callers that pre-allocated an
  // accumulator in the context keep theirs (they want to read it back).
  obs::CostAccumulator frame_cost;
  obs::CostAccumulator* cost_acc =
      ctx.cost != nullptr
          ? ctx.cost.get()
          : (obs::CostAccountingEnabled() ? &frame_cost : nullptr);
  obs::ScopedCostContext cost_scope(cost_acc);
  int64_t dequeued_at_nanos = clock_->NowNanos();
  queue_wait_->Record(static_cast<uint64_t>(
      std::max<int64_t>(0, dequeued_at_nanos - enqueued_at_nanos)));

  Status st = Run(op, op_name, ctx, dequeued_at_nanos - enqueued_at_nanos);

  // Everything about the request is recorded before the caller is
  // answered: a caller reading the registry right after Call() returns
  // must see its own request. Roll the accumulated CostVector up into
  // the operator's per-dimension histograms and offer it to the top-K
  // expensive-request tracker, stamped with the dequeue time.
  if (cost_acc != nullptr && obs::CostAccountingEnabled()) {
    obs::CostVector cost = cost_acc->Snapshot();
    for (size_t d = 0; d < obs::kNumCostDims; ++d) {
      // Zero-valued dims are skipped: the cpu histogram's count is the
      // per-operator request count, so a dim's zero fraction is still
      // derivable, and a trivial request stays one Record, not six.
      if (cost.v[d] == 0 && d != static_cast<size_t>(obs::CostDim::kCpuNanos)) {
        continue;
      }
      if (op->cost_hist[d] != nullptr) op->cost_hist[d]->Record(cost.v[d]);
    }
    obs::ExpensiveRequestTracker::Instance().Record(
        ctx.trace_id, op->span_name, dequeued_at_nanos, cost);
  }
  // Request latency spans queue wait + every attempt.
  request_latency_->Record(static_cast<uint64_t>(
      std::max<int64_t>(0, clock_->NowNanos() - enqueued_at_nanos)));
  Resolve(done, std::move(st));
}

Status Frontend::Run(Operator* op, const std::string& op_name,
                     const RequestContext& ctx, int64_t waited_nanos) {
  if (options_.shed_enabled) {
    int64_t waited_ms = waited_nanos / 1'000'000;
    if (static_cast<uint64_t>(std::max<int64_t>(0, waited_ms)) >
        options_.max_queue_wait_ms) {
      // Running a request whose latency budget was spent waiting would
      // only add load exactly when the system is already behind.
      shed_queued_wait_->Increment();
      return Status::Unavailable("shed: queued too long");
    }
  }

  // Read-only brownout: while the gate subsystem (the disk) is
  // critical, write operators are refused outright — letting the
  // handler fail halfway through a mutation would just re-latch the
  // storage layer the watchdog is trying to heal. Reads flow on.
  if (options_.health != nullptr && !options_.read_only_gate.empty()) {
    bool is_write;
    {
      std::lock_guard<std::mutex> lock(ops_mutex_);
      is_write = op->is_write;
    }
    if (is_write && options_.health->StateOf(options_.read_only_gate) ==
                        HealthState::kCritical) {
      std::string why =
          "read-only: " + options_.read_only_gate + " critical: " +
          options_.health->ReasonOf(options_.read_only_gate);
      if (ctx.response != nullptr) {
        // Not a degraded *answer* — there is none — but the channel
        // still carries the reason so callers can tell brownout from
        // a generic refusal.
        ctx.response->degraded = true;
        ctx.response->degraded_reason = why;
      }
      read_only_refused_->Increment();
      return Status::Unavailable(std::move(why));
    }
  }

  // Health-driven rung of the fallback ladder: when the operator's
  // subsystem is critical, don't even offer it the request — serve the
  // degraded answer directly. (A merely-degraded subsystem still gets
  // the traffic; its breaker decides.)
  if (options_.health != nullptr) {
    std::string subsystem, fallback;
    {
      std::lock_guard<std::mutex> lock(ops_mutex_);
      subsystem = op->subsystem;
      fallback = op->fallback;
    }
    if (!subsystem.empty() && !fallback.empty() &&
        options_.health->StateOf(subsystem) == HealthState::kCritical) {
      // Canary trickle: every kCriticalCanaryEvery-th request still
      // attempts the primary, so recovery evidence (breaker probes,
      // fresh successes) keeps flowing. Routing *everything* around a
      // critical subsystem would starve the very signal that could
      // clear the verdict, wedging it critical forever.
      bool canary = op->canary.fetch_add(1, std::memory_order_relaxed) %
                        kCriticalCanaryEvery ==
                    kCriticalCanaryEvery - 1;
      if (!canary) {
        if (auto s = TryFallback(op, ctx, subsystem + " critical")) return *s;
      }
    }
  }

  Rng rng(kRetryJitterSeed ^ (ctx.id * 0x9E3779B97F4A7C15ULL));
  uint32_t budget = ctx.retry_budget;
  uint32_t attempt = 0;
  while (true) {
    if (Status s = ctx.interrupt.Check(); !s.ok()) return s;
    uint64_t admission = CircuitBreaker::kCurrentAdmission;
    if (!op->breaker.Allow(&admission)) {
      breaker_rejected_->Increment();
      // Breaker-refused rung: try the fallback before failing the call.
      if (auto s = TryFallback(op, ctx, "breaker open for " + op_name)) {
        return *s;
      }
      return Status::Unavailable("breaker open for " + op_name);
    }
    ++attempt;
    Status st = Attempt(op, op_name, ctx);
    if (st.ok()) {
      op->breaker.RecordSuccess(admission);
      return Status::OK();
    }
    if (st.code() == StatusCode::kCancelled) {
      // Client intent, not operator health: release the (possible)
      // probe slot without recording evidence either way — a cancelled
      // probe must not re-close a half-open breaker.
      op->breaker.ReleaseProbe(admission);
      return st;
    }
    if (st.code() == StatusCode::kDeadlineExceeded) {
      // Slowness IS a health signal — count it against the operator,
      // but don't retry: the budget is gone.
      op->breaker.RecordFailure(admission);
      return st;
    }
    op->breaker.RecordFailure(admission);
    if (budget == 0) {
      // Retry budget exhausted: one last chance to answer degraded
      // instead of not at all.
      if (auto s = TryFallback(op, ctx, op_name + " failing")) return *s;
      return Status::Unavailable(StrFormat("%s failed after %u attempts: %s",
                                           op_name.c_str(), attempt,
                                           st.message().c_str()));
    }
    --budget;
    retries_->Increment();
    obs::ChargeCost(obs::CostDim::kRetries, 1);
    // Jittered exponential backoff, clipped to the remaining deadline.
    double base = kRetryBaseMs;
    for (uint32_t i = 1; i < attempt; ++i) base *= kRetryMultiplier;
    base = std::min(base, kRetryMaxMs);
    auto backoff_ms =
        static_cast<uint64_t>(base * (0.5 + 0.5 * rng.NextDouble()));
    backoff_ms = std::min(backoff_ms, ctx.interrupt.deadline.RemainingMillis());
    if (backoff_ms > 0) {
      TRACE_SPAN("serve.retry_backoff");
      clock_->SleepForMillis(backoff_ms);
    }
  }
}

HealthSample Frontend::BreakerSignal(const std::string& subsystem) const {
  size_t total = 0, open = 0, half_open = 0;
  std::string worst_op;
  {
    std::lock_guard<std::mutex> lock(ops_mutex_);
    for (const auto& [name, op] : ops_) {
      if (op->subsystem != subsystem) continue;
      ++total;
      switch (op->breaker.state()) {
        case CircuitBreaker::State::kOpen:
          ++open;
          worst_op = name;
          break;
        case CircuitBreaker::State::kHalfOpen:
          ++half_open;
          if (open == 0) worst_op = name;
          break;
        case CircuitBreaker::State::kClosed:
          break;
      }
    }
  }
  if (total == 0 || (open == 0 && half_open == 0)) return HealthSample{};
  if (open == total) {
    return HealthSample{HealthState::kCritical,
                        "all breakers open (" + worst_op + ")"};
  }
  if (open > 0) {
    return HealthSample{HealthState::kDegraded, "breaker open: " + worst_op};
  }
  return HealthSample{HealthState::kDegraded,
                      "breaker half-open: " + worst_op};
}

HealthSample Frontend::AdmissionSignal() const {
  if (!options_.shed_enabled || options_.max_queue_depth == 0) {
    return HealthSample{};
  }
  size_t depth = pool_.stats().queue_depth;
  if (depth >= options_.max_queue_depth) {
    return HealthSample{HealthState::kCritical, "admission queue full"};
  }
  if (depth * 4 >= options_.max_queue_depth * 3) {
    return HealthSample{HealthState::kDegraded, "admission queue >=75% full"};
  }
  return HealthSample{};
}

ServingCounters Frontend::Counters() const {
  ServingCounters c;
  c.issued = issued_->Value();
  c.admitted = admitted_->Value();
  c.shed = shed_->Value();
  c.not_found = not_found_->Value();
  c.ok = ok_->Value();
  c.deadline_exceeded = deadline_exceeded_->Value();
  c.cancelled = cancelled_->Value();
  c.unavailable = unavailable_->Value();
  c.shed_queued_wait = shed_queued_wait_->Value();
  c.breaker_rejected = breaker_rejected_->Value();
  c.read_only_refused = read_only_refused_->Value();
  c.shed_brownout = shed_brownout_->Value();
  c.fallback_served = fallback_served_->Value();
  c.degraded_answers = degraded_answers_->Value();
  c.retries = retries_->Value();
  c.root_spans = root_spans_->Value();
  for (size_t t = 0; t < kNumPriorities; ++t) {
    c.tiers[t].issued = tier_issued_[t]->Value();
    c.tiers[t].admitted = tier_admitted_[t]->Value();
    c.tiers[t].shed = tier_shed_[t]->Value();
    c.tiers[t].not_found = tier_not_found_[t]->Value();
  }
  c.queue_high_water = pool_.stats().queue_high_water;
  std::lock_guard<std::mutex> lock(ops_mutex_);
  for (const std::string& name : op_order_) {
    c.breakers.emplace_back(
        name, CircuitBreaker::StateName(ops_.at(name)->breaker.state()));
  }
  return c;
}

CircuitBreaker::State Frontend::BreakerState(const std::string& op) const {
  std::lock_guard<std::mutex> lock(ops_mutex_);
  auto it = ops_.find(op);
  return it == ops_.end() ? CircuitBreaker::State::kClosed
                          : it->second->breaker.state();
}

}  // namespace structura::serve
