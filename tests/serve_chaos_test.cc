// Resilient-serving tests: circuit breaker and frontend unit coverage,
// plus the concurrent chaos harness — a multi-threaded mixed workload
// (keyword + hybrid + structured + translate + write + extract) under
// probabilistic failpoints and randomized 1–50ms deadlines. Run plain
// and under -DSTRUCTURA_SANITIZE=thread.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "common/sim_env.h"
#include "common/thread_pool.h"
#include "core/system.h"
#include "corpus/generator.h"
#include "lang/executor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "rdbms/database.h"
#include "serve/frontend.h"
#include "test_json_util.h"

namespace structura::serve {
namespace {

// ------------------------------------------------------- CircuitBreaker

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndProbesClosed) {
  CircuitBreaker::Options opts;
  opts.failure_threshold = 3;
  opts.open_ms = 20;
  CircuitBreaker cb(opts);

  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
  cb.RecordFailure();
  cb.RecordFailure();
  // A success resets the *consecutive* count.
  cb.RecordSuccess();
  cb.RecordFailure();
  cb.RecordFailure();
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
  cb.RecordFailure();
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.open_transitions(), 1u);

  // Open: traffic is refused until the cooldown elapses.
  EXPECT_FALSE(cb.Allow());
  EXPECT_GE(cb.rejected(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));

  // Cooldown over: exactly one probe is admitted (half_open_probes=1).
  EXPECT_TRUE(cb.Allow());
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(cb.Allow());  // probe slot taken

  cb.RecordSuccess();
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.Allow());
}

TEST(CircuitBreakerTest, FailedProbeReopensWithFreshCooldown) {
  CircuitBreaker::Options opts;
  opts.failure_threshold = 1;
  opts.open_ms = 20;
  CircuitBreaker cb(opts);

  cb.RecordFailure();
  ASSERT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  ASSERT_TRUE(cb.Allow());
  cb.RecordFailure();  // probe failed
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.open_transitions(), 2u);
  // The cooldown restarted: still refusing immediately after.
  EXPECT_FALSE(cb.Allow());
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_TRUE(cb.Allow());
  cb.RecordSuccess();
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, ReleasedProbeFreesSlotWithoutReclosing) {
  CircuitBreaker::Options opts;
  opts.failure_threshold = 1;
  opts.open_ms = 10;
  CircuitBreaker cb(opts);

  cb.RecordFailure();
  ASSERT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));

  uint64_t probe = 0;
  ASSERT_TRUE(cb.Allow(&probe));
  ASSERT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(cb.Allow());  // the single probe slot is taken

  // The probe was cancelled by the client: no evidence either way. The
  // slot frees up, but the breaker must NOT re-close.
  cb.ReleaseProbe(probe);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);

  uint64_t retry = 0;
  EXPECT_TRUE(cb.Allow(&retry));  // slot available again
  cb.RecordSuccess(retry);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, StaleProbeResultsAreIgnoredAfterReclose) {
  CircuitBreaker::Options opts;
  opts.failure_threshold = 1;  // any counted failure would re-open
  opts.open_ms = 10;
  opts.half_open_probes = 2;
  CircuitBreaker cb(opts);

  cb.RecordFailure();
  ASSERT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));

  uint64_t p1 = 0, p2 = 0;
  ASSERT_TRUE(cb.Allow(&p1));
  ASSERT_TRUE(cb.Allow(&p2));

  // First probe recovers the operator while the second is still out.
  cb.RecordSuccess(p1);
  ASSERT_EQ(cb.state(), CircuitBreaker::State::kClosed);

  // The straggler was admitted before recovery; its failure says
  // nothing about the re-closed breaker and must not re-open it (with
  // failure_threshold=1 a counted failure would).
  cb.RecordFailure(p2);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(cb.open_transitions(), 1u);

  // A post-recovery failure still counts normally.
  cb.RecordFailure();
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.open_transitions(), 2u);
}

TEST(CircuitBreakerTest, StuckProbeSlotIsReclaimedAfterTimeout) {
  CircuitBreaker::Options opts;
  opts.failure_threshold = 1;
  opts.open_ms = 10;
  opts.probe_timeout_ms = 100;
  CircuitBreaker cb(opts);

  cb.RecordFailure();
  ASSERT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));

  // The probe is admitted... and its handler hangs, never reporting.
  uint64_t stuck = 0;
  ASSERT_TRUE(cb.Allow(&stuck));
  ASSERT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(cb.Allow());  // slot taken, timeout not yet elapsed

  // Past the probe timeout the slot is reclaimed: a probe that never
  // completes must not wedge the breaker in half-open forever.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  uint64_t fresh = 0;
  EXPECT_TRUE(cb.Allow(&fresh));
  EXPECT_EQ(cb.probe_reclaims(), 1u);

  // The reclaimed probe's admission was invalidated: if the stuck
  // handler ever does report, the result is discarded (an honored
  // failure would re-open the breaker here).
  cb.RecordFailure(stuck);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);

  cb.RecordSuccess(fresh);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
}

// --------------------------------------------------------- Frontend

TEST(FrontendTest, ResolvesBasicStatuses) {
  Frontend::Options opts;
  opts.num_threads = 2;
  Frontend fe(opts);
  fe.RegisterOperator("ok", [](const RequestContext&) { return Status::OK(); });

  EXPECT_TRUE(fe.Call("ok", RequestContext{}).ok());
  EXPECT_EQ(fe.Call("missing", RequestContext{}).code(),
            StatusCode::kNotFound);

  RequestContext expired;
  expired.interrupt.deadline = Deadline::AfterMillis(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(fe.Call("ok", std::move(expired)).code(),
            StatusCode::kDeadlineExceeded);

  CancellationSource source;
  source.Cancel();
  RequestContext cancelled;
  cancelled.interrupt.token = source.token();
  EXPECT_EQ(fe.Call("ok", std::move(cancelled)).code(),
            StatusCode::kCancelled);

  ServingCounters c = fe.Counters();
  EXPECT_EQ(c.issued, 4u);
  EXPECT_EQ(c.admitted, 3u);   // "missing" was refused at admission
  EXPECT_EQ(c.not_found, 1u);  // ... and tracked as such, not as a shed
  EXPECT_EQ(c.shed, 0u);
  EXPECT_EQ(c.ok, 1u);
  EXPECT_EQ(c.deadline_exceeded, 1u);
  EXPECT_EQ(c.cancelled, 1u);
  EXPECT_EQ(c.root_spans, c.admitted);  // one root span per admitted request
}

TEST(FrontendTest, ShedsAtAdmissionWhenQueueIsFull) {
  Frontend::Options opts;
  opts.num_threads = 1;
  opts.max_queue_depth = 1;
  opts.max_queue_wait_ms = 10000;  // isolate admission-control shedding
  Frontend fe(opts);

  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  fe.RegisterOperator("slow", [&](const RequestContext&) {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
    return Status::OK();
  });

  // One request occupies the worker; wait until it is actually running
  // so the queue-depth accounting below is deterministic.
  std::future<Status> running = fe.Submit("slow", RequestContext{});
  while (fe.Counters().queue_high_water < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // Fill the queue (depth 1), then overflow it.
  std::vector<std::future<Status>> waiting;
  size_t shed = 0;
  for (int i = 0; i < 8; ++i) {
    std::future<Status> f = fe.Submit("slow", RequestContext{});
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      Status s = f.get();
      EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
      ++shed;
    } else {
      waiting.push_back(std::move(f));
    }
  }
  EXPECT_GE(shed, 6u);  // 8 submitted, at most ~2 fit (queue + races)

  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(running.get().ok());
  for (auto& f : waiting) EXPECT_TRUE(f.get().ok());

  ServingCounters c = fe.Counters();
  EXPECT_EQ(c.issued, 9u);
  EXPECT_EQ(c.admitted + c.shed + c.not_found, c.issued);
  EXPECT_EQ(c.shed, shed);
}

TEST(FrontendTest, ShedsRequestsThatWaitedPastTheQueueBudget) {
  Frontend::Options opts;
  opts.num_threads = 1;
  opts.max_queue_depth = 16;
  opts.max_queue_wait_ms = 5;
  Frontend fe(opts);

  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  fe.RegisterOperator("slow", [&](const RequestContext&) {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
    return Status::OK();
  });
  fe.RegisterOperator("fast",
                      [](const RequestContext&) { return Status::OK(); });

  std::future<Status> head = fe.Submit("slow", RequestContext{});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // This request sits behind `slow` far longer than its 5ms budget.
  std::future<Status> stale = fe.Submit("fast", RequestContext{});
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();

  EXPECT_TRUE(head.get().ok());
  Status s = stale.get();
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  ServingCounters c = fe.Counters();
  EXPECT_EQ(c.shed_queued_wait, 1u);
  EXPECT_EQ(c.admitted, 2u);  // it *was* admitted, then shed at dequeue
}

TEST(FrontendTest, RetriesInjectedFaultWithinBudget) {
  Frontend::Options opts;
  opts.num_threads = 1;
  Frontend fe(opts);
  fe.RegisterOperator("flaky",
                      [](const RequestContext&) { return Status::OK(); });

  ScopedFailpoint fp("serve.op.flaky", FailpointRegistry::Spec::Nth(1));
  RequestContext ctx;
  ctx.retry_budget = 2;
  EXPECT_TRUE(fe.Call("flaky", std::move(ctx)).ok());

  ServingCounters c = fe.Counters();
  EXPECT_EQ(c.ok, 1u);
  EXPECT_EQ(c.retries, 1u);
}

TEST(FrontendTest, ExhaustedRetryBudgetResolvesUnavailable) {
  Frontend::Options opts;
  opts.num_threads = 1;
  opts.breaker.failure_threshold = 100;  // keep the breaker out of this
  Frontend fe(opts);
  fe.RegisterOperator("down",
                      [](const RequestContext&) { return Status::OK(); });

  ScopedFailpoint fp("serve.op.down", FailpointRegistry::Spec::Always());
  RequestContext ctx;
  ctx.retry_budget = 2;
  Status s = fe.Call("down", std::move(ctx));
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();

  ServingCounters c = fe.Counters();
  EXPECT_EQ(c.unavailable, 1u);
  EXPECT_EQ(c.retries, 2u);  // the whole budget was spent
}

TEST(FrontendTest, BreakerOpensUnderFaultBurstAndRecloses) {
  Frontend::Options opts;
  opts.num_threads = 1;
  opts.breaker.failure_threshold = 3;
  opts.breaker.open_ms = 20;
  Frontend fe(opts);
  fe.RegisterOperator("svc",
                      [](const RequestContext&) { return Status::OK(); });

  {
    ScopedFailpoint fp("serve.op.svc", FailpointRegistry::Spec::Always());
    for (int i = 0; i < 3; ++i) {
      RequestContext ctx;
      ctx.retry_budget = 0;
      EXPECT_EQ(fe.Call("svc", std::move(ctx)).code(),
                StatusCode::kUnavailable);
    }
    EXPECT_EQ(fe.BreakerState("svc"), CircuitBreaker::State::kOpen);

    // While open, calls fail fast without touching the operator.
    Status s = fe.Call("svc", RequestContext{});
    EXPECT_EQ(s.code(), StatusCode::kUnavailable);
    EXPECT_GE(fe.Counters().breaker_rejected, 1u);
  }

  // Faults stopped; after the cooldown a probe succeeds and re-closes.
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_TRUE(fe.Call("svc", RequestContext{}).ok());
  EXPECT_EQ(fe.BreakerState("svc"), CircuitBreaker::State::kClosed);
}

TEST(FrontendTest, CancelledProbeDoesNotRecloseBreaker) {
  Frontend::Options opts;
  opts.num_threads = 1;
  opts.breaker.failure_threshold = 1;
  opts.breaker.open_ms = 20;
  Frontend fe(opts);
  std::atomic<bool> cancel_in_handler{true};
  fe.RegisterOperator("svc", [&](const RequestContext&) {
    // Models an operator noticing mid-work that the client went away.
    return cancel_in_handler ? Status::Cancelled("client went away")
                             : Status::OK();
  });

  {
    ScopedFailpoint fp("serve.op.svc", FailpointRegistry::Spec::Always());
    RequestContext ctx;
    ctx.retry_budget = 0;
    EXPECT_EQ(fe.Call("svc", std::move(ctx)).code(),
              StatusCode::kUnavailable);
  }
  ASSERT_EQ(fe.BreakerState("svc"), CircuitBreaker::State::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));

  // The recovery probe is cancelled: no health evidence, so the breaker
  // must stay half-open rather than re-admitting full traffic.
  EXPECT_EQ(fe.Call("svc", RequestContext{}).code(), StatusCode::kCancelled);
  EXPECT_EQ(fe.BreakerState("svc"), CircuitBreaker::State::kHalfOpen);

  // A genuinely healthy probe re-closes it.
  cancel_in_handler = false;
  EXPECT_TRUE(fe.Call("svc", RequestContext{}).ok());
  EXPECT_EQ(fe.BreakerState("svc"), CircuitBreaker::State::kClosed);
}

TEST(FrontendTest, DestructionDrainsQueuedRequests) {
  // Destroying a Frontend with work still queued must resolve every
  // future and must not touch freed state: the queued Execute() tasks
  // dereference the operator map and bump the counters while the pool
  // drains, so those members have to outlive the pool (run under
  // ASan/TSan via scripts/check.sh).
  std::vector<std::future<Status>> futures;
  {
    Frontend::Options opts;
    opts.num_threads = 1;
    opts.max_queue_depth = 64;
    opts.max_queue_wait_ms = 10000;  // nothing sheds at dequeue
    Frontend fe(opts);
    fe.RegisterOperator("slowish", [](const RequestContext&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return Status::OK();
    });
    for (int i = 0; i < 32; ++i) {
      futures.push_back(fe.Submit("slowish", RequestContext{}));
    }
  }  // ~Frontend drains the backlog with every other member still alive
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f.get().ok());
  }
}

uint64_t ProcessCounter(const std::string& name) {
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

uint64_t ProcessHistogramCount(const std::string& name) {
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
  for (const auto& h : snap.histograms) {
    if (h.name == name) return h.count;
  }
  return 0;
}

TEST(FrontendTest, CountersAreOwnedPerFrontendAndFoldIntoDefault) {
  // Each frontend counts its own traffic, whatever else the process
  // serves; the process registry sums live frontends in and keeps a
  // destroyed one's counts.
  Frontend::Options opts;
  opts.num_threads = 1;
  auto ok = [](const RequestContext&) { return Status::OK(); };
  Frontend a(opts);
  a.RegisterOperator("ok", ok);
  const uint64_t issued_before = ProcessCounter("serve.requests.issued");
  const uint64_t latency_before =
      ProcessHistogramCount("serve.request.latency_ns");
  {
    Frontend b(opts);
    b.RegisterOperator("ok", ok);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(b.Call("ok", RequestContext{}).ok());
    }
    b.WaitIdle();
    EXPECT_EQ(a.Counters().issued, 0u);
    EXPECT_EQ(a.Counters().ok, 0u);
    EXPECT_EQ(b.Counters().issued, 5u);
    EXPECT_EQ(b.Counters().ok, 5u);
    EXPECT_EQ(ProcessCounter("serve.requests.issued"), issued_before + 5);
    EXPECT_EQ(ProcessHistogramCount("serve.request.latency_ns"),
              latency_before + 5);
  }
  EXPECT_EQ(ProcessCounter("serve.requests.issued"), issued_before + 5);
  EXPECT_EQ(ProcessHistogramCount("serve.request.latency_ns"),
            latency_before + 5);
  EXPECT_EQ(a.Counters().issued, 0u);
}

TEST(FrontendTest, RequestIsRecordedBeforeItsCallReturns) {
  // A request's latency and its operator's cost rollup are recorded
  // before its future is set, so the caller reads its own request right
  // after Call() returns, with no WaitIdle(). (Recorded after the
  // promise, the counts trailed the caller now and then: a race.)
  Frontend::Options opts;
  opts.num_threads = 2;
  Frontend fe(opts);
  fe.RegisterOperator("seen",
                      [](const RequestContext&) { return Status::OK(); });
  const uint64_t latency_before =
      ProcessHistogramCount("serve.request.latency_ns");
  const uint64_t cost_before =
      ProcessHistogramCount("serve.op.seen.cost.cpu_ns");
  for (uint64_t i = 1; i <= 200; ++i) {
    ASSERT_TRUE(fe.Call("seen", RequestContext{}).ok());
    ASSERT_EQ(ProcessHistogramCount("serve.request.latency_ns"),
              latency_before + i);
    ASSERT_EQ(ProcessHistogramCount("serve.op.seen.cost.cpu_ns"),
              cost_before + i);
  }
}

// ------------------------------------------------------- Health model

TEST(HealthModelTest, DemotesImmediatelyAndPromotesAfterStreak) {
  HealthModel::Options hopts;
  hopts.promote_after = 2;
  HealthModel hm(hopts);

  std::mutex m;
  HealthSample next;  // what the signal reports on the next Evaluate()
  hm.Register("storage.wal", "integrity", [&] {
    std::lock_guard<std::mutex> lock(m);
    return next;
  });
  EXPECT_EQ(hm.StateOf("storage.wal"), HealthState::kHealthy);
  EXPECT_EQ(hm.StateOf("no.such.subsystem"), HealthState::kHealthy);

  auto set = [&](HealthState s, const std::string& reason) {
    std::lock_guard<std::mutex> lock(m);
    next = HealthSample{s, reason};
  };

  // Demotion is immediate: one bad sample flips the state.
  set(HealthState::kCritical, "wal torn");
  hm.Evaluate();
  EXPECT_EQ(hm.StateOf("storage.wal"), HealthState::kCritical);
  EXPECT_EQ(hm.ReasonOf("storage.wal"), "wal torn");
  EXPECT_EQ(hm.Overall(), HealthState::kCritical);
  EXPECT_EQ(hm.transitions(), 1u);

  // Promotion needs promote_after consecutive better samples: one lucky
  // probe is not recovery.
  set(HealthState::kDegraded, "replaying");
  hm.Evaluate();
  EXPECT_EQ(hm.StateOf("storage.wal"), HealthState::kCritical);
  hm.Evaluate();
  EXPECT_EQ(hm.StateOf("storage.wal"), HealthState::kDegraded);
  EXPECT_EQ(hm.ReasonOf("storage.wal"), "replaying");

  // A relapse mid-streak demotes immediately and resets the streak.
  set(HealthState::kHealthy, "");
  hm.Evaluate();
  EXPECT_EQ(hm.StateOf("storage.wal"), HealthState::kDegraded);
  set(HealthState::kCritical, "torn again");
  hm.Evaluate();
  EXPECT_EQ(hm.StateOf("storage.wal"), HealthState::kCritical);

  // Two consecutive clean samples promote straight back to healthy.
  set(HealthState::kHealthy, "");
  hm.Evaluate();
  hm.Evaluate();
  EXPECT_EQ(hm.StateOf("storage.wal"), HealthState::kHealthy);
  EXPECT_EQ(hm.ReasonOf("storage.wal"), "");
  EXPECT_EQ(hm.Overall(), HealthState::kHealthy);
  EXPECT_EQ(hm.evaluations(), 7u);
}

TEST(HealthModelTest, SubsystemIsWorstOfItsSourcesAndJsonRenders) {
  HealthModel hm;
  hm.Register("query.structured", "breakers", [] { return HealthSample{}; });
  uint64_t latency_id = hm.Register("query.structured", "latency", [] {
    return HealthSample{HealthState::kDegraded, "p99 over budget"};
  });
  hm.Register("ie", "faults", [] { return HealthSample{}; });
  hm.Evaluate();

  EXPECT_EQ(hm.StateOf("query.structured"), HealthState::kDegraded);
  EXPECT_EQ(hm.ReasonOf("query.structured"), "p99 over budget");
  EXPECT_EQ(hm.StateOf("ie"), HealthState::kHealthy);
  EXPECT_EQ(hm.ReasonOf("ie"), "");
  EXPECT_EQ(hm.Overall(), HealthState::kDegraded);

  std::vector<HealthModel::SourceStatus> snap = hm.Snapshot();
  ASSERT_EQ(snap.size(), 3u);  // sorted by (subsystem, source)
  EXPECT_EQ(snap[0].subsystem, "ie");
  EXPECT_EQ(snap[1].source, "breakers");
  EXPECT_EQ(snap[2].source, "latency");
  EXPECT_EQ(snap[2].transitions, 1u);

  std::string json = hm.ToJson();
  EXPECT_NE(json.find("\"overall\":\"degraded\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"query.structured\":{\"state\":\"degraded\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"latency\":{\"state\":\"degraded\",\"reason\":"
                      "\"p99 over budget\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ie\":{\"state\":\"healthy\""), std::string::npos)
      << json;

  // A detached source stops voting.
  hm.Detach(latency_id);
  EXPECT_EQ(hm.StateOf("query.structured"), HealthState::kHealthy);
  EXPECT_EQ(hm.Overall(), HealthState::kHealthy);
}

TEST(HealthModelTest, DetachedSignalNeverRunsAgain) {
  HealthModel hm;
  std::atomic<uint64_t> runs{0};
  uint64_t id = hm.Register("svc", "probe", [&] {
    ++runs;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return HealthSample{HealthState::kDegraded, "still counting"};
  });
  std::atomic<bool> stop{false};
  std::thread evaluator([&] {
    while (!stop.load()) hm.Evaluate();
  });
  while (runs.load() == 0) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));

  // Detach drains any in-flight evaluation: after it returns the signal
  // fn is guaranteed to never run again, even with Evaluate() looping.
  hm.Detach(id);
  uint64_t at_detach = runs.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(runs.load(), at_detach);
  // ... and the detached source no longer votes.
  EXPECT_EQ(hm.StateOf("svc"), HealthState::kHealthy);

  stop.store(true);
  evaluator.join();
}

// ------------------------------------------------- Brownout admission

TEST(DegradationPolicyTest, LowerTiersShedFirstAsHealthWorsens) {
  HealthModel hm;
  std::mutex m;
  HealthSample next;
  hm.Register("svc", "probe", [&] {
    std::lock_guard<std::mutex> lock(m);
    return next;
  });
  DegradationPolicy::Options opts;
  opts.batch_queue_fraction = 0.5;
  opts.background_queue_fraction = 0.25;
  opts.degraded_tighten = 0.5;
  DegradationPolicy policy(opts, &hm);
  const size_t kCap = 100;

  // Healthy: interactive owns the whole queue; the lower tiers only
  // their shares (background's ⊂ batch's ⊂ everything).
  EXPECT_TRUE(policy.Admit(Priority::kInteractive, 99, kCap).admit);
  EXPECT_TRUE(policy.Admit(Priority::kBatch, 49, kCap).admit);
  EXPECT_FALSE(policy.Admit(Priority::kBatch, 50, kCap).admit);
  EXPECT_TRUE(policy.Admit(Priority::kBackground, 24, kCap).admit);
  EXPECT_FALSE(policy.Admit(Priority::kBackground, 25, kCap).admit);

  // Degraded: the shares tighten.
  {
    std::lock_guard<std::mutex> lock(m);
    next = HealthSample{HealthState::kDegraded, "wobbling"};
  }
  hm.Evaluate();  // demotion is immediate
  EXPECT_TRUE(policy.Admit(Priority::kInteractive, 99, kCap).admit);
  EXPECT_TRUE(policy.Admit(Priority::kBatch, 24, kCap).admit);
  EXPECT_FALSE(policy.Admit(Priority::kBatch, 25, kCap).admit);
  EXPECT_TRUE(policy.Admit(Priority::kBackground, 12, kCap).admit);
  EXPECT_FALSE(policy.Admit(Priority::kBackground, 13, kCap).admit);

  // Critical: background is refused outright, batch tightens again.
  {
    std::lock_guard<std::mutex> lock(m);
    next = HealthSample{HealthState::kCritical, "on fire"};
  }
  hm.Evaluate();
  DegradationPolicy::Decision d = policy.Admit(Priority::kBackground, 0, kCap);
  EXPECT_FALSE(d.admit);
  EXPECT_NE(std::string(d.reason).find("critical"), std::string::npos)
      << d.reason;
  EXPECT_TRUE(policy.Admit(Priority::kBatch, 12, kCap).admit);
  EXPECT_FALSE(policy.Admit(Priority::kBatch, 13, kCap).admit);
  EXPECT_TRUE(policy.Admit(Priority::kInteractive, 99, kCap).admit);

  // Disabled policy (the bench baseline) or an unbounded queue admits
  // every tier regardless of health.
  DegradationPolicy::Options off = opts;
  off.enabled = false;
  DegradationPolicy no_brownout(off, &hm);
  EXPECT_TRUE(no_brownout.Admit(Priority::kBackground, 99, kCap).admit);
  EXPECT_TRUE(policy.Admit(Priority::kBackground, 99, 0).admit);
}

// ------------------------------------------------- Fallback ladder

TEST(FrontendTest, BreakerRefusalServesFallbackMarkedDegraded) {
  Frontend::Options opts;
  opts.num_threads = 1;
  opts.breaker.failure_threshold = 1;
  opts.breaker.open_ms = 60000;  // stays open for the whole test
  Frontend fe(opts);
  fe.RegisterOperator("hybrid",
                      [](const RequestContext&) { return Status::OK(); });
  std::atomic<uint64_t> keyword_calls{0};
  fe.RegisterOperator("keyword", [&](const RequestContext&) {
    ++keyword_calls;
    return Status::OK();
  });
  fe.SetFallback("hybrid", "keyword");

  {  // The failing attempt exhausts its budget and opens the breaker;
     // the very same request is already answered through the fallback
     // (marked degraded through its response channel).
    ScopedFailpoint fp("serve.op.hybrid", FailpointRegistry::Spec::Always());
    RequestContext ctx;
    ctx.retry_budget = 0;
    ctx.response = std::make_shared<ResponseMeta>();
    std::shared_ptr<ResponseMeta> first_response = ctx.response;
    Status s = fe.Call("hybrid", std::move(ctx));
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(first_response->degraded);
    EXPECT_EQ(first_response->served_by, "keyword");
  }
  ASSERT_EQ(fe.BreakerState("hybrid"), CircuitBreaker::State::kOpen);

  // While the breaker refuses the primary, the fallback serves — and
  // the answer says so. A degraded answer is a contract, not a secret.
  RequestContext ctx;
  ctx.response = std::make_shared<ResponseMeta>();
  std::shared_ptr<ResponseMeta> response = ctx.response;
  Status s = fe.Call("hybrid", std::move(ctx));
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(response->degraded);
  EXPECT_EQ(response->served_by, "keyword");
  EXPECT_NE(response->degraded_reason.find("breaker open"), std::string::npos)
      << response->degraded_reason;
  EXPECT_EQ(keyword_calls.load(), 2u);

  ServingCounters c = fe.Counters();
  EXPECT_EQ(c.issued, 2u);
  EXPECT_EQ(c.ok, 2u);  // both answered despite the primary being down
  EXPECT_EQ(c.fallback_served, 2u);
  EXPECT_EQ(c.degraded_answers, 2u);
  EXPECT_EQ(c.breaker_rejected, 1u);
  EXPECT_EQ(c.unavailable, 0u);
}

TEST(FrontendTest, NoResponseChannelMeansNoFallback) {
  // A request that allocated no ctx.response has no way to receive the
  // degraded flag, so serving the fallback would be exactly the silent
  // substitution the contract forbids. The ladder must be skipped and
  // the primary's refusal must stand.
  Frontend::Options opts;
  opts.num_threads = 1;
  opts.breaker.failure_threshold = 1;
  opts.breaker.open_ms = 60000;  // stays open for the whole test
  Frontend fe(opts);
  fe.RegisterOperator("hybrid",
                      [](const RequestContext&) { return Status::OK(); });
  std::atomic<uint64_t> keyword_calls{0};
  fe.RegisterOperator("keyword", [&](const RequestContext&) {
    ++keyword_calls;
    return Status::OK();
  });
  fe.SetFallback("hybrid", "keyword");

  {  // Open the breaker; without a response channel even this failing
     // request fails outright instead of degrading silently.
    ScopedFailpoint fp("serve.op.hybrid", FailpointRegistry::Spec::Always());
    RequestContext ctx;
    ctx.retry_budget = 0;
    Status s = fe.Call("hybrid", std::move(ctx));
    EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  }
  ASSERT_EQ(fe.BreakerState("hybrid"), CircuitBreaker::State::kOpen);

  Status s = fe.Call("hybrid", RequestContext{});
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  EXPECT_EQ(keyword_calls.load(), 0u);  // the fallback never ran

  ServingCounters c = fe.Counters();
  EXPECT_EQ(c.fallback_served, 0u);
  EXPECT_EQ(c.degraded_answers, 0u);
  EXPECT_EQ(c.unavailable, 2u);
}

TEST(FrontendTest, CriticalSubsystemIsBypassedViaFallback) {
  HealthModel hm;
  hm.Register("query.structured", "test", [] {
    return HealthSample{HealthState::kCritical, "index wedged"};
  });
  hm.Evaluate();

  Frontend::Options opts;
  opts.num_threads = 1;
  opts.health = &hm;
  Frontend fe(opts);
  std::atomic<uint64_t> hybrid_calls{0}, keyword_calls{0};
  fe.RegisterOperator("hybrid", [&](const RequestContext&) {
    ++hybrid_calls;
    return Status::OK();
  });
  fe.RegisterOperator("keyword", [&](const RequestContext&) {
    ++keyword_calls;
    return Status::OK();
  });
  fe.TagOperator("hybrid", "query.structured");
  fe.SetFallback("hybrid", "keyword");

  RequestContext ctx;
  ctx.response = std::make_shared<ResponseMeta>();
  std::shared_ptr<ResponseMeta> response = ctx.response;
  EXPECT_TRUE(fe.Call("hybrid", std::move(ctx)).ok());
  EXPECT_EQ(hybrid_calls.load(), 0u);  // never touched the sick subsystem
  EXPECT_EQ(keyword_calls.load(), 1u);
  EXPECT_TRUE(response->degraded);
  EXPECT_EQ(response->served_by, "keyword");
  EXPECT_NE(response->degraded_reason.find("critical"), std::string::npos)
      << response->degraded_reason;

  // The subsystem recovers: traffic returns to the primary.
  hm.Register("query.structured", "test", [] { return HealthSample{}; });
  hm.Evaluate();
  EXPECT_TRUE(fe.Call("hybrid", RequestContext{}).ok());
  EXPECT_EQ(hybrid_calls.load(), 1u);
}

TEST(FrontendTest, DestructionDetachesHealthSignalsUnderLiveEvaluation) {
  // Regression: a watchdog evaluating health signals concurrently with
  // ~Frontend must never touch freed breakers or counters. The
  // destructor detaches its registrations (draining any in-flight
  // evaluation) before any member dies. Run under TSan via
  // scripts/check.sh.
  HealthModel hm;
  std::atomic<bool> stop{false};
  std::thread evaluator([&] {
    while (!stop.load()) hm.Evaluate();
  });
  for (int round = 0; round < 16; ++round) {
    std::vector<std::future<Status>> futures;
    Frontend::Options opts;
    opts.num_threads = 2;
    opts.max_queue_depth = 64;
    opts.max_queue_wait_ms = 10000;
    opts.health = &hm;
    Frontend fe(opts);
    fe.RegisterOperator("q", [](const RequestContext&) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      return Status::OK();
    });
    fe.TagOperator("q", "query.keyword");
    for (int i = 0; i < 16; ++i) {
      futures.push_back(fe.Submit("q", RequestContext{}));
    }
    // fe is destroyed here with work still queued and the evaluator
    // polling its breaker signal.
  }
  stop.store(true);
  evaluator.join();
  // Every frontend detached on destruction: nothing votes any more.
  EXPECT_EQ(hm.StateOf("query.keyword"), HealthState::kHealthy);
  EXPECT_EQ(hm.StateOf("serve"), HealthState::kHealthy);
}

// ------------------------------------------------------- Chaos harness

std::string TempDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("structura_serve_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// When a chaos leg fails in CI, the counters and the health ledger are
// the first things an investigator wants. scripts/check.sh and the CI
// workflow point STRUCTURA_ARTIFACT_DIR at a directory they upload.
void DumpArtifactsOnFailure(core::System* sys, const std::string& tag) {
  if (!::testing::Test::HasFailure()) return;
  const char* dir = std::getenv("STRUCTURA_ARTIFACT_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream(std::string(dir) + "/" + tag + "-metrics.prom")
      << core::System::MetricsPrometheus();
  if (sys != nullptr) {
    std::ofstream(std::string(dir) + "/" + tag + "-health.json")
        << sys->HealthJson();
  }
}

// Mixed workload under probabilistic faults: every request must
// terminate with a well-formed Status, counters must reconcile with the
// number of issued requests, and breakers must re-close once the fault
// burst ends. No crashes, no hangs, no leaked promises.
TEST(ServeChaosTest, MixedWorkloadUnderFaultsTerminatesAndReconciles) {
  corpus::CorpusOptions copts;
  copts.num_cities = 15;
  copts.num_people = 20;
  copts.num_companies = 5;
  copts.seed = 41;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(copts, &docs, &truth);

  // A real workspace so the final store has a WAL — the wal.append
  // failpoint needs one to fire through.
  core::System::Options sopts;
  sopts.workspace = TempDir("chaos");
  auto sys_or = core::System::Create(sopts);
  ASSERT_TRUE(sys_or.ok()) << sys_or.status().ToString();
  std::unique_ptr<core::System> sys = std::move(sys_or).value();
  sys->RegisterStandardOperators();
  ASSERT_TRUE(sys->IngestCrawl(docs).ok());
  // Bind a fact view so translate/structured/hybrid have data to serve.
  ASSERT_TRUE(
      sys->RunProgram("CREATE VIEW facts AS EXTRACT infobox FROM pages;")
          .ok());
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());

  rdbms::TableSchema schema;
  schema.table_name = "chaos_log";
  schema.columns = {{"client", rdbms::ValueType::kInt},
                    {"seq", rdbms::ValueType::kInt}};
  ASSERT_TRUE(sys->database()->CreateTable(schema).ok());

  // Extraction runs the executor's morsel-parallel EXTRACT over every
  // registered extractor, on its own pool (a frontend worker must never
  // run ParallelFor on the frontend's pool).
  ThreadPool extract_pool(4);
  lang::ExecutionContext extract_ctx;
  extract_ctx.docs = &sys->documents();
  extract_ctx.extractors = sys->context().extractors;
  extract_ctx.exec.parallelism = 2;
  extract_ctx.exec.pool = &extract_pool;
  lang::PlanNode extract_plan;
  extract_plan.type = lang::PlanNode::Type::kExtract;
  for (const auto& [name, extractor] : extract_ctx.extractors) {
    extract_plan.extractors.push_back(name);
  }
  extract_plan.children.push_back(std::make_unique<lang::PlanNode>());
  extract_plan.children.back()->type = lang::PlanNode::Type::kScanDocs;

  Frontend::Options fopts;
  fopts.num_threads = 8;
  fopts.max_queue_depth = 256;
  fopts.max_queue_wait_ms = 40;
  fopts.breaker.failure_threshold = 8;
  fopts.breaker.open_ms = 30;
  fopts.breaker.half_open_probes = 2;
  Frontend fe(fopts);
  sys->SetServingStatsProvider([&fe] { return fe.Counters(); });

  const std::vector<std::string> kQueries = {
      "Madison", "population", "mayor", "temperature", "company",
      "founded", "elevation"};

  fe.RegisterOperator("keyword", [&](const RequestContext& ctx) {
    auto hits = sys->KeywordSearch(kQueries[ctx.id % kQueries.size()], 5,
                                   ctx.interrupt);
    return hits.status();
  });
  fe.RegisterOperator("translate", [&](const RequestContext& ctx) {
    auto forms = sys->SuggestQueries(kQueries[ctx.id % kQueries.size()],
                                     ctx.interrupt);
    return forms.status();
  });
  fe.RegisterOperator("structured", [&](const RequestContext& ctx) {
    auto forms = sys->SuggestQueries("population", ctx.interrupt);
    if (!forms.ok()) return forms.status();
    if (forms->empty()) return Status::OK();  // nothing to run is fine
    auto rel = sys->RunForm((*forms)[0], ctx.interrupt);
    return rel.status();
  });
  fe.RegisterOperator("hybrid", [&](const RequestContext& ctx) {
    std::vector<query::Condition> conds;
    conds.push_back({"attribute", query::CompareOp::kEq,
                     rdbms::Value::Str("population")});
    auto hits = sys->HybridSearch(kQueries[ctx.id % kQueries.size()], conds,
                                  5, ctx.interrupt);
    return hits.status();
  });
  std::mutex write_mutex;
  std::atomic<uint64_t> write_seq{0};
  fe.RegisterOperator("write", [&](const RequestContext& ctx) {
    // One writer at a time: lock conflicts aren't what this harness is
    // probing — WAL faults and retry/deadline behaviour are.
    std::lock_guard<std::mutex> lock(write_mutex);
    auto txn = sys->database()->Begin();
    auto row = txn->Insert(
        "chaos_log",
        {rdbms::Value::Int(static_cast<int64_t>(ctx.id)),
         rdbms::Value::Int(static_cast<int64_t>(write_seq.fetch_add(1)))});
    if (!row.ok()) return row.status();
    return txn->Commit();
  });
  fe.RegisterOperator("extract", [&](const RequestContext& ctx) {
    // One context copy per request: the executor's fault and
    // quarantine bookkeeping is per context.
    lang::ExecutionContext request_ctx = extract_ctx;
    request_ctx.interrupt = ctx.interrupt;
    return lang::ExecutePlan(extract_plan, &request_ctx).status();
  });

  const std::vector<std::string> kOps = {
      "keyword", "keyword", "keyword",  // weight the cheap reads
      "translate", "translate", "structured", "structured",
      "hybrid",    "hybrid",   "write",      "write",
      "extract"};

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 250;  // 2000 total
  std::atomic<uint64_t> client_ok{0}, client_deadline{0}, client_cancel{0},
      client_unavailable{0};

  {
    // Probabilistic faults across WAL, extraction, and the serving
    // layer itself, all live while the workload runs.
    ScopedFailpoint wal_fp(
        "wal.append", FailpointRegistry::Spec::WithProbability(0.05, 11));
    ScopedFailpoint ie_fp(
        "ie.extract", FailpointRegistry::Spec::WithProbability(0.05, 12));
    ScopedFailpoint serve_fp(
        "serve.op", FailpointRegistry::Spec::WithProbability(0.05, 14));

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(1000 + static_cast<uint64_t>(c));
        for (int i = 0; i < kRequestsPerClient; ++i) {
          RequestContext ctx;
          ctx.id = static_cast<uint64_t>(c) * kRequestsPerClient + i;
          ctx.interrupt.deadline =
              Deadline::AfterMillis(1 + rng.NextBounded(50));
          ctx.retry_budget = static_cast<uint32_t>(rng.NextBounded(3));
          CancellationSource source;
          bool cancel = rng.NextBool(0.05);
          if (cancel) ctx.interrupt.token = source.token();
          const std::string& op = kOps[rng.NextBounded(kOps.size())];
          std::future<Status> fut = fe.Submit(op, std::move(ctx));
          if (cancel) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(rng.NextBounded(3000)));
            source.Cancel();
          }
          Status result = fut.get();
          switch (result.code()) {
            case StatusCode::kOk:
              ++client_ok;
              break;
            case StatusCode::kDeadlineExceeded:
              ++client_deadline;
              break;
            case StatusCode::kCancelled:
              ++client_cancel;
              break;
            case StatusCode::kUnavailable:
              ++client_unavailable;
              break;
            default:
              ADD_FAILURE() << "unexpected terminal status "
                            << result.ToString();
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }  // fault scope ends: failpoints disarmed

  // The extraction fault was live: the extract operator evaluates the
  // site on every (document, extractor) run, so it must have fired.
  EXPECT_GT(FailpointRegistry::Instance().GetCounters("ie.extract").fires,
            0u);

  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kClients) * kRequestsPerClient;
  EXPECT_EQ(client_ok + client_deadline + client_cancel + client_unavailable,
            kTotal);

  ServingCounters c = fe.Counters();
  EXPECT_EQ(c.issued, kTotal);
  EXPECT_EQ(c.not_found, 0u);  // every op in kOps is registered
  EXPECT_EQ(c.admitted + c.shed + c.not_found, c.issued);
  // Every admitted request resolved to exactly one terminal status.
  EXPECT_EQ(c.ok + c.deadline_exceeded + c.cancelled + c.unavailable,
            c.admitted);
  // Client-observed outcomes match the frontend's accounting (queue-full
  // sheds surface to clients as kUnavailable).
  EXPECT_EQ(client_ok.load(), c.ok);
  EXPECT_EQ(client_deadline.load(), c.deadline_exceeded);
  EXPECT_EQ(client_cancel.load(), c.cancelled);
  EXPECT_EQ(client_unavailable.load(), c.unavailable + c.shed);
  EXPECT_GT(c.ok, 0u);  // the system did real work under chaos
  // Tracing reconciles with admission control: every admitted request —
  // and only admitted requests — recorded exactly one root span.
  EXPECT_EQ(c.root_spans, c.admitted);

  // The serving section of the status report reflects the live counters.
  std::string report = sys->StatusReport();
  EXPECT_NE(report.find("serving:"), std::string::npos);
  EXPECT_NE(report.find("keyword("), std::string::npos);
  // And the registry-rendered metrics section agrees with the same
  // snapshot the Prometheus/JSON endpoints use.
  EXPECT_NE(report.find("metrics[serve]"), std::string::npos);
  EXPECT_NE(core::System::MetricsPrometheus().find("serve_requests_issued"),
            std::string::npos);

  // Faults stopped: every operator must recover. Generous deadlines,
  // polling through breaker cooldowns until traffic flows again.
  for (const std::string op :
       {"keyword", "translate", "structured", "hybrid", "write", "extract"}) {
    Status last;
    bool recovered = false;
    for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
      RequestContext ctx;
      ctx.interrupt.deadline = Deadline::AfterMillis(2000);
      last = fe.Call(op, std::move(ctx));
      if (last.ok()) {
        recovered = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    EXPECT_TRUE(recovered) << op << " never recovered: " << last.ToString();
    EXPECT_EQ(fe.BreakerState(op), CircuitBreaker::State::kClosed) << op;
  }

  DumpArtifactsOnFailure(sys.get(), "chaos");
  sys->SetServingStatsProvider(nullptr);
  std::filesystem::remove_all(sopts.workspace);
}

// Mixed-priority workload under faults: the brownout ladder must shed
// background before batch before interactive, per-tier accounting must
// reconcile, every fallback-served answer must be explicitly marked
// degraded (no silent wrong answers), and once the faults clear the
// watchdog must walk every subsystem back to healthy.
TEST(ServeChaosTest, MixedPriorityBrownoutShedsLowerTiersFirst) {
  corpus::CorpusOptions copts;
  copts.num_cities = 10;
  copts.num_people = 10;
  copts.num_companies = 3;
  copts.seed = 43;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(copts, &docs, &truth);

  core::System::Options sopts;
  sopts.workspace = TempDir("brownout");
  auto sys_or = core::System::Create(sopts);
  ASSERT_TRUE(sys_or.ok()) << sys_or.status().ToString();
  std::unique_ptr<core::System> sys = std::move(sys_or).value();
  sys->RegisterStandardOperators();
  ASSERT_TRUE(sys->IngestCrawl(docs).ok());
  ASSERT_TRUE(
      sys->RunProgram("CREATE VIEW facts AS EXTRACT infobox FROM pages;")
          .ok());
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());

  Frontend::Options fopts;
  fopts.num_threads = 4;
  fopts.max_queue_depth = 32;
  fopts.max_queue_wait_ms = 10000;  // shed by brownout, not queue age
  fopts.breaker.failure_threshold = 3;
  fopts.breaker.open_ms = 30;
  fopts.brownout.batch_queue_fraction = 0.5;
  fopts.brownout.background_queue_fraction = 0.25;
  fopts.health = &sys->health();
  Frontend fe(fopts);
  sys->SetServingStatsProvider([&fe] { return fe.Counters(); });

  const std::vector<std::string> kQueries = {"Madison", "population",
                                             "mayor", "company"};
  fe.RegisterOperator("keyword", [&](const RequestContext& ctx) {
    auto hits = sys->KeywordSearch(kQueries[ctx.id % kQueries.size()], 5,
                                   ctx.interrupt);
    return hits.status();
  });
  fe.RegisterOperator("hybrid", [&](const RequestContext& ctx) {
    std::vector<query::Condition> conds;
    conds.push_back({"attribute", query::CompareOp::kEq,
                     rdbms::Value::Str("population")});
    auto hits = sys->HybridSearch(kQueries[ctx.id % kQueries.size()], conds,
                                  5, ctx.interrupt);
    return hits.status();
  });
  fe.TagOperator("keyword", "query.keyword");
  fe.TagOperator("hybrid", "query.structured");
  fe.SetFallback("hybrid", "keyword");

  core::System::WatchdogOptions wopts;
  wopts.interval_ms = 10;
  sys->StartWatchdog(wopts);
  ASSERT_TRUE(sys->WatchdogRunning());

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 300;  // 100 per tier per client
  std::atomic<uint64_t> interactive_ok{0};
  std::atomic<uint64_t> degraded_seen{0};
  std::atomic<uint64_t> silent_degraded{0};

  {
    // The hybrid operator is in real trouble; everything else sees only
    // the background fault rate. Heavy enough that the hybrid breaker
    // opens and the fallback ladder carries its traffic.
    ScopedFailpoint hybrid_fp(
        "serve.op.hybrid", FailpointRegistry::Spec::WithProbability(0.5, 21));
    ScopedFailpoint serve_fp(
        "serve.op", FailpointRegistry::Spec::WithProbability(0.05, 22));

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(2000 + static_cast<uint64_t>(c));
        struct Pending {
          std::future<Status> fut;
          std::shared_ptr<ResponseMeta> response;
          Priority tier;
        };
        std::vector<Pending> pending;
        pending.reserve(kRequestsPerClient);
        // Submit the whole batch as fast as possible so the queue
        // actually fills and the brownout thresholds bite, then drain.
        for (int i = 0; i < kRequestsPerClient; ++i) {
          RequestContext ctx;
          ctx.id = static_cast<uint64_t>(c) * kRequestsPerClient + i;
          ctx.priority = static_cast<Priority>(i % kNumPriorities);
          ctx.interrupt.deadline = Deadline::AfterMillis(2000);
          ctx.retry_budget = static_cast<uint32_t>(rng.NextBounded(2));
          ctx.response = std::make_shared<ResponseMeta>();
          Pending p;
          p.response = ctx.response;
          p.tier = ctx.priority;
          const std::string& op = (i % 2 == 0) ? "hybrid" : "keyword";
          p.fut = fe.Submit(op, std::move(ctx));
          pending.push_back(std::move(p));
        }
        for (Pending& p : pending) {
          Status result = p.fut.get();
          if (!result.ok()) continue;
          if (p.tier == Priority::kInteractive) ++interactive_ok;
          if (p.response->degraded) {
            ++degraded_seen;
            EXPECT_FALSE(p.response->served_by.empty());
            EXPECT_FALSE(p.response->degraded_reason.empty());
          } else if (!p.response->served_by.empty()) {
            ++silent_degraded;  // answered by a stand-in, not marked
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }  // failpoints disarmed

  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kClients) * kRequestsPerClient;
  ServingCounters c = fe.Counters();
  EXPECT_EQ(c.issued, kTotal);
  EXPECT_EQ(c.admitted + c.shed + c.not_found, c.issued);
  uint64_t tier_issued_sum = 0;
  for (size_t t = 0; t < kNumPriorities; ++t) {
    const ServingCounters::Tier& tier = c.tiers[t];
    EXPECT_EQ(tier.admitted + tier.shed + tier.not_found, tier.issued)
        << PriorityName(static_cast<Priority>(t));
    EXPECT_EQ(tier.issued, kTotal / kNumPriorities);
    tier_issued_sum += tier.issued;
  }
  EXPECT_EQ(tier_issued_sum, c.issued);

  const ServingCounters::Tier& interactive =
      c.tiers[static_cast<size_t>(Priority::kInteractive)];
  const ServingCounters::Tier& batch =
      c.tiers[static_cast<size_t>(Priority::kBatch)];
  const ServingCounters::Tier& background =
      c.tiers[static_cast<size_t>(Priority::kBackground)];
  // The brownout ladder: refusal thresholds are nested (background's
  // queue share ⊂ batch's ⊂ the full queue), so with equal per-tier
  // issue rates the shed counts must come out ordered.
  EXPECT_GE(background.shed, batch.shed);
  EXPECT_GE(batch.shed, interactive.shed);
  EXPECT_GE(interactive.admitted, batch.admitted);
  EXPECT_GE(batch.admitted, background.admitted);
  EXPECT_GT(c.shed_brownout, 0u);        // the ladder actually engaged
  EXPECT_GT(interactive_ok.load(), 0u);  // interactive goodput survived

  // Degradation is a contract: every stand-in answer was marked, and
  // the frontend's count of degraded answers matches what the clients
  // actually observed — nothing degraded silently in either direction.
  EXPECT_EQ(silent_degraded.load(), 0u);
  EXPECT_GT(c.fallback_served, 0u);
  EXPECT_EQ(degraded_seen.load(), c.degraded_answers);

  // StatusReport carries the health line an operator reads first.
  std::string report = sys->StatusReport();
  EXPECT_NE(report.find("health: overall"), std::string::npos) << report;

  // Faults cleared: drive traffic until the breakers re-close, then the
  // watchdog must promote every subsystem back to healthy.
  for (const std::string op : {"keyword", "hybrid"}) {
    Status last;
    bool recovered = false;
    for (int attempt = 0; attempt < 200 && !recovered; ++attempt) {
      RequestContext ctx;
      ctx.interrupt.deadline = Deadline::AfterMillis(2000);
      last = fe.Call(op, std::move(ctx));
      recovered = last.ok() &&
                  fe.BreakerState(op) == CircuitBreaker::State::kClosed;
      if (!recovered) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    EXPECT_TRUE(recovered) << op << ": " << last.ToString();
  }
  HealthState overall = sys->health().Overall();
  for (int attempt = 0; attempt < 500 && overall != HealthState::kHealthy;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    overall = sys->health().Overall();
  }
  EXPECT_EQ(overall, HealthState::kHealthy) << sys->HealthJson();
  EXPECT_GT(sys->WatchdogTicks(), 0u);
  std::string health_json = sys->HealthJson();
  EXPECT_NE(health_json.find("\"overall\":\"healthy\""), std::string::npos)
      << health_json;
  EXPECT_NE(health_json.find("\"running\":true"), std::string::npos)
      << health_json;
  EXPECT_NE(health_json.find("\"ie\""), std::string::npos) << health_json;

  DumpArtifactsOnFailure(sys.get(), "brownout");
  sys->SetServingStatsProvider(nullptr);
  sys->StopWatchdog();
  std::filesystem::remove_all(sopts.workspace);
}

// Deterministic self-healing: tear the snapshot journal's tail, reopen,
// and let the watchdog notice (degraded), auto-scrub, and promote the
// subsystem back to healthy — no operator in the loop.
TEST(ServeChaosTest, WatchdogAutoScrubHealsTornSnapshotJournalTail) {
  corpus::CorpusOptions copts;
  copts.num_cities = 6;
  copts.num_people = 6;
  copts.num_companies = 2;
  copts.seed = 47;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(copts, &docs, &truth);

  core::System::Options sopts;
  sopts.workspace = TempDir("heal");
  {
    auto sys_or = core::System::Create(sopts);
    ASSERT_TRUE(sys_or.ok()) << sys_or.status().ToString();
    std::unique_ptr<core::System> sys = std::move(sys_or).value();
    sys->RegisterStandardOperators();
    ASSERT_TRUE(sys->IngestCrawl(docs).ok());
    ASSERT_TRUE(
        sys->RunProgram("CREATE VIEW facts AS EXTRACT infobox FROM pages;")
            .ok());
    ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
    ASSERT_TRUE(sys->MaterializeBeliefs("beliefs_out").ok());
  }  // clean shutdown: everything flushed

  // A crash mid-append: garbage after the last valid frame, too short
  // to even be a frame header.
  const std::string journal =
      sopts.workspace + "/snapshots/snapshots.journal";
  ASSERT_TRUE(std::filesystem::exists(journal));
  {
    std::ofstream out(journal, std::ios::binary | std::ios::app);
    out << "TORNTAIL";
  }

  auto sys_or = core::System::Create(sopts);
  ASSERT_TRUE(sys_or.ok()) << sys_or.status().ToString();
  std::unique_ptr<core::System> sys = std::move(sys_or).value();
  // Reopen recovery spotted (and truncated) the torn tail...
  EXPECT_GT(sys->snapshots().recovery_report().torn_tail_bytes, 0u);
  // ...so the first health evaluation demotes storage.snapshots.
  sys->health().Evaluate();
  ASSERT_EQ(sys->health().StateOf("storage.snapshots"),
            HealthState::kDegraded)
      << sys->health().ToJson();

  core::System::WatchdogOptions wopts;
  wopts.interval_ms = 5;
  wopts.scrub_cooldown_ms = 20;
  sys->StartWatchdog(wopts);

  // The watchdog auto-scrubs (the truncated journal replayed clean) and
  // the promote-slow streak walks the subsystem back to healthy.
  HealthState state = sys->health().StateOf("storage.snapshots");
  for (int attempt = 0; attempt < 400 && state != HealthState::kHealthy;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    state = sys->health().StateOf("storage.snapshots");
  }
  EXPECT_EQ(state, HealthState::kHealthy) << sys->HealthJson();
  EXPECT_GE(sys->WatchdogAutoScrubs(), 1u);
  EXPECT_EQ(sys->health().Overall(), HealthState::kHealthy)
      << sys->HealthJson();
  std::string json = sys->HealthJson();
  EXPECT_NE(json.find("\"storage.snapshots\":{\"state\":\"healthy\""),
            std::string::npos)
      << json;

  DumpArtifactsOnFailure(sys.get(), "heal");
  sys->StopWatchdog();
  std::filesystem::remove_all(sopts.workspace);
}

// A dying disk must brown the system out to read-only — writes refused
// with an explained kUnavailable, reads serving the durable prefix —
// and once the device recovers the watchdog must probe, heal the
// latched WAL, and lift the brownout without operator intervention.
TEST(ServeChaosTest, DiskFaultEngagesReadOnlyBrownoutAndHeals) {
  core::System::Options sopts;
  sopts.workspace = TempDir("readonly");
  SimulatedEnv senv;
  sopts.env = &senv;
  auto sys_or = core::System::Create(sopts);
  ASSERT_TRUE(sys_or.ok()) << sys_or.status().ToString();
  std::unique_ptr<core::System> sys = std::move(sys_or).value();

  text::DocumentCollection docs;
  text::Document doc;
  doc.id = 1;
  doc.title = "Madison";
  doc.text = "Madison has a population of 233,209.";
  docs.docs.push_back(doc);
  ASSERT_TRUE(sys->IngestCrawl(docs).ok());

  rdbms::TableSchema schema;
  schema.table_name = "ro_log";
  schema.columns = {{"seq", rdbms::ValueType::kInt}};
  ASSERT_TRUE(sys->database()->CreateTable(schema).ok());

  Frontend::Options fopts;
  fopts.num_threads = 2;
  // Breakers stay out of the picture: this test isolates the read-only
  // gate (Options::read_only_gate defaults to "storage.disk").
  fopts.breaker.failure_threshold = 1000;
  fopts.health = &sys->health();
  Frontend fe(fopts);
  std::atomic<int64_t> seq{0};
  fe.RegisterOperator("read", [&](const RequestContext& ctx) {
    auto hits = sys->KeywordSearch("Madison", 3, ctx.interrupt);
    return hits.status();
  });
  fe.RegisterOperator("write", [&](const RequestContext& ctx) {
    (void)ctx;
    auto txn = sys->database()->Begin();
    auto row = txn->Insert("ro_log", {rdbms::Value::Int(seq.fetch_add(1))});
    if (!row.ok()) {
      (void)txn->Abort();
      return row.status();
    }
    return txn->Commit();
  });
  fe.MarkWrite("write");

  // Healthy baseline: both paths serve.
  ASSERT_TRUE(fe.Call("read", RequestContext{}).ok());
  ASSERT_TRUE(fe.Call("write", RequestContext{}).ok());
  sys->health().Evaluate();
  ASSERT_EQ(sys->health().StateOf("storage.disk"), HealthState::kHealthy);

  {
    // The device stops accepting fsyncs: the next commit fails at its
    // durability point and latches the WAL sticky.
    ScopedFailpoint fp("env.sync", FailpointRegistry::Spec::Always());
    Status failed = fe.Call("write", RequestContext{});
    EXPECT_FALSE(failed.ok()) << failed.ToString();
    EXPECT_TRUE(sys->ReadOnly()) << sys->ReadOnlyReason();

    // The health signal probes the device (the probe fails too — the
    // disk really is unwritable) and demotes storage.disk to critical.
    sys->health().Evaluate();
    ASSERT_EQ(sys->health().StateOf("storage.disk"), HealthState::kCritical)
        << sys->HealthJson();

    // Writes are now refused at the frontend with an explained
    // kUnavailable; the handler (and the dying disk) is never touched.
    auto meta = std::make_shared<ResponseMeta>();
    RequestContext wctx;
    wctx.response = meta;
    Status refused = fe.Call("write", std::move(wctx));
    EXPECT_EQ(refused.code(), StatusCode::kUnavailable)
        << refused.ToString();
    EXPECT_TRUE(meta->degraded);
    EXPECT_NE(meta->degraded_reason.find("read-only"), std::string::npos)
        << meta->degraded_reason;

    // Reads keep serving the durable prefix.
    EXPECT_TRUE(fe.Call("read", RequestContext{}).ok());

    // The operator-facing report says so in as many words.
    std::string report = sys->StatusReport();
    EXPECT_NE(report.find("READ-ONLY"), std::string::npos) << report;
  }  // the device recovers: failpoint disarmed

  // The watchdog re-probes, heals the WAL via checkpoint, and the
  // brownout lifts — no operator intervention.
  core::System::WatchdogOptions wopts;
  wopts.interval_ms = 5;
  wopts.heal_cooldown_ms = 10;
  sys->StartWatchdog(wopts);
  Status write_again;
  for (int attempt = 0; attempt < 400; ++attempt) {
    write_again = fe.Call("write", RequestContext{});
    if (write_again.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(write_again.ok())
      << write_again.ToString() << "\n" << sys->HealthJson();
  EXPECT_FALSE(sys->ReadOnly()) << sys->ReadOnlyReason();
  EXPECT_GE(sys->WatchdogAutoHeals(), 1u);

  // The promote-slow streak walks storage.disk back to healthy.
  HealthState state = sys->health().StateOf("storage.disk");
  for (int attempt = 0; attempt < 400 && state != HealthState::kHealthy;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    state = sys->health().StateOf("storage.disk");
  }
  EXPECT_EQ(state, HealthState::kHealthy) << sys->HealthJson();

  ServingCounters c = fe.Counters();
  EXPECT_GE(c.read_only_refused, 1u);
  EXPECT_GE(c.unavailable, c.read_only_refused);

  DumpArtifactsOnFailure(sys.get(), "readonly");
  sys->StopWatchdog();
  std::filesystem::remove_all(sopts.workspace);
}

// ------------------------------------------------- Incident forensics

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::vector<std::string> IncidentBundleDirs(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_directory()) out.push_back(entry.path().string());
  }
  return out;
}

/// Extracts the string value of `"key":"…"` from a hand-rolled JSON blob.
std::string JsonStringField(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":\"";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  size_t end = json.find('"', pos);
  if (end == std::string::npos) return "";
  return json.substr(pos, end - pos);
}

// A breaker flapping under a persistent fault demotes its subsystem to
// critical; the watchdog must dump exactly ONE incident bundle (the
// cooldown suppresses every repeat trigger while the flap continues),
// and the bundle must be self-contained: metrics, health, the event
// journal tail, and at least one expensive-request span tree.
TEST(ServeChaosTest, BreakerTripToCriticalDumpsExactlyOneIncidentBundle) {
  obs::ExpensiveRequestTracker::Instance().Clear();
  core::System::Options sopts;
  sopts.workspace = TempDir("incident");
  sopts.incident_dir = TempDir("incident_bundles");
  sopts.incident_cooldown_ms = 60'000;  // longer than the whole test
  auto sys_or = core::System::Create(sopts);
  ASSERT_TRUE(sys_or.ok()) << sys_or.status().ToString();
  std::unique_ptr<core::System> sys = std::move(sys_or).value();
  ASSERT_NE(sys->incidents(), nullptr);

  text::DocumentCollection docs;
  text::Document doc;
  doc.id = 1;
  doc.title = "Madison";
  doc.text = "Madison has a population of 233,209.";
  docs.docs.push_back(doc);
  ASSERT_TRUE(sys->IngestCrawl(docs).ok());

  Frontend::Options fopts;
  fopts.num_threads = 2;
  fopts.breaker.failure_threshold = 2;
  fopts.breaker.open_ms = 5;
  fopts.health = &sys->health();
  Frontend fe(fopts);
  fe.RegisterOperator("search", [&](const RequestContext& ctx) {
    auto hits = sys->KeywordSearch("Madison", 3, ctx.interrupt);
    return hits.status();
  });
  fe.RegisterOperator("flaky", [](const RequestContext&) {
    return Status::IoError("injected persistent fault");
  });
  fe.TagOperator("flaky", "query.flaky");

  // A healthy request first, so the expensive-request tracker has a
  // span tree with real cost (rows scanned) before the incident fires.
  ASSERT_TRUE(fe.Call("search", RequestContext{}).ok());

  core::System::WatchdogOptions wopts;
  wopts.interval_ms = 20;
  wopts.breaker_flap_threshold = 3;
  sys->StartWatchdog(wopts);

  // Keep the fault flapping until the watchdog has dumped a bundle AND
  // suppressed at least one repeat trigger inside the cooldown window.
  for (int i = 0; i < 6000 && sys->incidents()->suppressed() < 1; ++i) {
    (void)fe.Call("flaky", RequestContext{});
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sys->StopWatchdog();

  EXPECT_EQ(sys->incidents()->dumps(), 1u)
      << "cooldown must hold the flap to one bundle";
  EXPECT_GE(sys->incidents()->suppressed(), 1u);

  std::vector<std::string> bundles = IncidentBundleDirs(sopts.incident_dir);
  ASSERT_EQ(bundles.size(), 1u);
  const std::string& bundle = bundles[0];

  std::string manifest = ReadWholeFile(bundle + "/MANIFEST.json");
  EXPECT_TRUE(testutil::IsValidJson(manifest)) << manifest;
  std::string trigger = JsonStringField(manifest, "trigger");
  EXPECT_TRUE(trigger == "health_critical" || trigger == "breaker_flap")
      << trigger;

  std::string metrics = ReadWholeFile(bundle + "/metrics.json");
  EXPECT_TRUE(testutil::IsValidJson(metrics));
  EXPECT_NE(metrics.find("serve.breaker.open_transitions"),
            std::string::npos);

  std::string health = ReadWholeFile(bundle + "/health.json");
  EXPECT_TRUE(testutil::IsValidJson(health));
  EXPECT_NE(health.find("query.flaky"), std::string::npos) << health;

  std::string events = ReadWholeFile(bundle + "/events.json");
  EXPECT_TRUE(testutil::IsValidJson(events));
  EXPECT_NE(events.find("\"code\":\"breaker_open\""), std::string::npos)
      << events;
  EXPECT_NE(events.find("\"code\":\"health_demote\""), std::string::npos)
      << events;

  std::string expensive = ReadWholeFile(bundle + "/expensive.json");
  EXPECT_TRUE(testutil::IsValidJson(expensive));
  EXPECT_NE(expensive.find("\"op\":\"serve."), std::string::npos)
      << expensive;
  EXPECT_NE(expensive.find("\"tree\":\""), std::string::npos);

  EXPECT_TRUE(
      testutil::IsValidJson(ReadWholeFile(bundle + "/slow.json")));
  EXPECT_FALSE(ReadWholeFile(bundle + "/status.txt").empty());

  // The operator-facing report points at the forensics.
  std::string report = sys->StatusReport();
  EXPECT_NE(report.find("forensics:"), std::string::npos) << report;
  EXPECT_NE(report.find("bundles=1"), std::string::npos) << report;

  std::filesystem::remove_all(sopts.workspace);
  std::filesystem::remove_all(sopts.incident_dir);
}

// The bundle is a replayable record: walking its event-journal tail
// with the watchdog's own trigger rules must re-derive the trigger
// named in MANIFEST.json.
TEST(ServeChaosTest, IncidentBundleTimelineReplaysItsTrigger) {
  obs::ExpensiveRequestTracker::Instance().Clear();
  constexpr uint32_t kFlapThreshold = 3;
  core::System::Options sopts;
  sopts.workspace = TempDir("replay");
  sopts.incident_dir = TempDir("replay_bundles");
  sopts.incident_cooldown_ms = 60'000;
  auto sys_or = core::System::Create(sopts);
  ASSERT_TRUE(sys_or.ok()) << sys_or.status().ToString();
  std::unique_ptr<core::System> sys = std::move(sys_or).value();
  ASSERT_NE(sys->incidents(), nullptr);

  Frontend::Options fopts;
  fopts.num_threads = 1;
  fopts.breaker.failure_threshold = 2;
  fopts.breaker.open_ms = 5;
  // No TagOperator: health stays out of it, so the flap detector is the
  // only trigger that can fire and the manifest is deterministic.
  Frontend fe(fopts);
  fe.RegisterOperator("flaky", [](const RequestContext&) {
    return Status::IoError("injected persistent fault");
  });

  core::System::WatchdogOptions wopts;
  wopts.interval_ms = 20;
  wopts.breaker_flap_threshold = kFlapThreshold;
  sys->StartWatchdog(wopts);
  for (int i = 0; i < 6000 && sys->incidents()->dumps() < 1; ++i) {
    (void)fe.Call("flaky", RequestContext{});
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sys->StopWatchdog();
  ASSERT_GE(sys->incidents()->dumps(), 1u);

  std::vector<std::string> bundles = IncidentBundleDirs(sopts.incident_dir);
  ASSERT_EQ(bundles.size(), 1u);
  std::string manifest = ReadWholeFile(bundles[0] + "/MANIFEST.json");
  std::string trigger = JsonStringField(manifest, "trigger");
  ASSERT_FALSE(trigger.empty()) << manifest;

  // Replay: walk the bundle's event timeline in order and apply the
  // watchdog's trigger rules to re-derive what could have fired.
  std::string events = ReadWholeFile(bundles[0] + "/events.json");
  ASSERT_TRUE(testutil::IsValidJson(events));
  std::vector<std::string> derived;
  uint64_t breaker_opens = 0;
  size_t pos = 0;
  while (true) {
    size_t at = events.find("\"nanos\":", pos);
    if (at == std::string::npos) break;
    std::string code =
        JsonStringField(events.substr(at, events.find('}', at) - at),
                        "code");
    if (code == "breaker_open") {
      if (++breaker_opens >= kFlapThreshold) {
        derived.push_back("breaker_flap");
      }
    } else if (code == "health_demote") {
      derived.push_back("health_critical");
    } else if (code == "read_only_enter") {
      derived.push_back("read_only_entered");
    }
    pos = at + 8;
  }
  EXPECT_NE(std::find(derived.begin(), derived.end(), trigger),
            derived.end())
      << "trigger '" << trigger << "' not derivable from the timeline:\n"
      << events;
  EXPECT_EQ(trigger, "breaker_flap");
  EXPECT_GE(breaker_opens, kFlapThreshold);

  std::filesystem::remove_all(sopts.workspace);
  std::filesystem::remove_all(sopts.incident_dir);
}

}  // namespace
}  // namespace structura::serve
