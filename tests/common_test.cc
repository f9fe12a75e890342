#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/clock.h"
#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace structura {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "not_found: missing thing");
}

TEST(StatusTest, EveryCodeHasName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable);
       ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "unknown");
  }
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v * 2;
}

Result<int> Chained(int v) {
  STRUCTURA_ASSIGN_OR_RETURN(int doubled, ParsePositive(v));
  return doubled + 1;
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err = ParsePositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Chained(5), 11);
  EXPECT_FALSE(Chained(0).ok());
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitAndTrimDropsEmpties) {
  EXPECT_EQ(SplitAndTrim("  a , b ,, c  ", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringsTest, JoinRoundTrips) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, "::"), "x::y::z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, TrimAndCase) {
  EXPECT_EQ(Trim("  hi\t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringsTest, ParseDoubleRejectsGarbage) {
  double v;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble("  -2 ", &v));
  EXPECT_FALSE(ParseDouble("3.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringsTest, ParseInt64) {
  int64_t v;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("12.5", &v));
  EXPECT_FALSE(ParseInt64("abc", &v));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%s", std::string(500, 'a').c_str()),
            std::string(500, 'a'));
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.Next() != b.Next();
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliApproximatesP) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(13);
  size_t low = 0, n = 10000;
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextZipf(100, 1.2) < 10) ++low;
  }
  // Rank 0-9 out of 100 should receive far more than 10% of draws.
  EXPECT_GT(low, n / 4);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()),
      b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(HashTest, StableAndSeeded) {
  EXPECT_EQ(Fnv1a64("hello"), Fnv1a64("hello"));
  EXPECT_NE(Fnv1a64("hello"), Fnv1a64("hellp"));
  EXPECT_NE(Fnv1a64("hello", 1), Fnv1a64("hello", 2));
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([&counter, i] {
      counter.fetch_add(1);
      return i;
    }));
  }
  for (int i = 0; i < 50; ++i) EXPECT_EQ(futures[i].get(), i);
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, WaitIdleDrains) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndexes) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(pool, 100, [&](size_t i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmpty) {
  ThreadPool pool(2);
  ParallelFor(pool, 0, [](size_t) { FAIL(); });
}

TEST(ThreadPoolTest, WorkerSurvivesThrowingTask) {
  // Regression: a raw Post()ed task that throws used to escape
  // WorkerLoop and std::terminate the process. Now the task is dropped,
  // counted, and the worker keeps serving.
  ThreadPool pool(1);
  pool.Post([] { throw std::runtime_error("boom"); });
  pool.WaitIdle();
  EXPECT_EQ(pool.stats().dropped_tasks, 1u);

  // Same worker still processes later work.
  std::atomic<int> counter{0};
  pool.Post([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 1);
  EXPECT_EQ(pool.stats().dropped_tasks, 1u);
}

TEST(ThreadPoolTest, BoundedQueueRejectsOverflow) {
  ThreadPool pool(1, /*max_queue=*/2);
  EXPECT_EQ(pool.max_queue(), 2u);
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  // Occupy the worker so subsequent posts stay queued.
  ASSERT_TRUE(pool.TryPost([&] {
    while (!release.load()) std::this_thread::yield();
    ran.fetch_add(1);
  }));
  // Wait for the blocker to leave the queue and start running.
  while (pool.stats().queue_depth > 0) std::this_thread::yield();

  size_t accepted = 0;
  std::vector<std::optional<std::future<int>>> futures;
  for (int i = 0; i < 6; ++i) {
    auto f = pool.TrySubmit([&ran] {
      ran.fetch_add(1);
      return 1;
    });
    if (f.has_value()) {
      ++accepted;
      futures.push_back(std::move(f));
    }
  }
  EXPECT_EQ(accepted, 2u);  // queue capacity
  EXPECT_EQ(pool.stats().rejected_tasks, 4u);
  EXPECT_GE(pool.stats().queue_high_water, 2u);

  release.store(true);
  for (auto& f : futures) EXPECT_EQ(f->get(), 1);
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 3);  // blocker + the two accepted
}

TEST(ThreadPoolTest, UnboundedSubmitNeverRejects) {
  ThreadPool pool(2);  // max_queue = 0: unbounded
  std::vector<std::optional<std::future<int>>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.TrySubmit([i] { return i; }));
    ASSERT_TRUE(futures.back().has_value());
  }
  for (int i = 0; i < 64; ++i) EXPECT_EQ((*futures[i]).get(), i);
  EXPECT_EQ(pool.stats().rejected_tasks, 0u);
}

TEST(ThreadPoolTest, ParallelForPropagatesBodyException) {
  // Regression: a throwing body used to strand the `done` counter and
  // hang ParallelFor forever. Now the first exception is rethrown on
  // the calling thread once every index has been attempted.
  ThreadPool pool(4);
  EXPECT_THROW(ParallelFor(pool, 100,
                           [](size_t i) {
                             if (i == 37) throw std::runtime_error("i=37");
                           }),
               std::runtime_error);
  // The pool is still healthy afterwards.
  std::atomic<int> hits{0};
  ParallelFor(pool, 10, [&](size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 10);
}

TEST(ThreadPoolTest, ParallelForGrainYieldsQueueToOtherWork) {
  // Starvation regression for the serve path: a long ParallelFor on a
  // saturated pool used to hold its worker until every index ran,
  // parking concurrently-posted tasks behind the whole scan. With a
  // grain, the chain re-posts itself to the BACK of the queue after
  // `grain` bodies, so the single worker below must run the marker task
  // (posted from inside body 0) before it reaches body 1.
  ThreadPool pool(1);
  std::atomic<bool> marker_ran{false};
  std::atomic<bool> marker_before_body1{false};
  ParallelForOptions opts;
  opts.grain = 1;
  ParallelFor(pool, 4, opts, [&](size_t i) {
    if (i == 0) {
      pool.Post([&] { marker_ran.store(true); });
    } else if (i == 1) {
      marker_before_body1.store(marker_ran.load());
    }
  });
  EXPECT_TRUE(marker_ran.load());
  EXPECT_TRUE(marker_before_body1.load())
      << "grain=1 chain ran body 1 before yielding to the queued marker";
  // Contrast: with no grain the chain keeps its worker to the end, so
  // the marker runs only after every body.
  std::atomic<bool> marker2_ran{false};
  std::atomic<bool> marker2_before_tail{true};
  ParallelFor(pool, 4, [&](size_t i) {
    if (i == 0) {
      pool.Post([&] { marker2_ran.store(true); });
    } else if (i == 3) {
      marker2_before_tail.store(marker2_ran.load());
    }
  });
  pool.WaitIdle();
  EXPECT_TRUE(marker2_ran.load());
  EXPECT_FALSE(marker2_before_tail.load())
      << "ungrained chain unexpectedly yielded mid-range";
}

TEST(ThreadPoolTest, ParallelForGrainCoversAllIndexesAndCapsWorkers) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelForOptions opts;
  opts.grain = 3;
  opts.max_workers = 2;
  ParallelFor(pool, hits.size(), opts,
              [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(DeadlineTest, InfiniteByDefaultAndExpires) {
  Deadline d;
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.RemainingMillis(), UINT64_MAX);

  Deadline past = Deadline::AfterMillis(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_FALSE(past.IsInfinite());
  EXPECT_TRUE(past.Expired());
  EXPECT_EQ(past.RemainingMillis(), 0u);

  Deadline future = Deadline::AfterMillis(60000);
  EXPECT_FALSE(future.Expired());
  EXPECT_GT(future.RemainingMillis(), 0u);
  EXPECT_LE(future.RemainingMillis(), 60000u);
}

TEST(CancellationTest, TokenObservesSourceAndIsSticky) {
  CancellationSource source;
  CancellationToken token = source.token();
  EXPECT_FALSE(token.cancelled());
  source.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancelled());
  // Copies observe the same flag.
  CancellationToken copy = token;
  EXPECT_TRUE(copy.cancelled());
  // A default token can never be cancelled.
  EXPECT_FALSE(CancellationToken().cancelled());
}

TEST(CancellationTest, InterruptCheckReportsTheRightCode) {
  EXPECT_TRUE(Interrupt{}.Check().ok());

  Interrupt timed;
  timed.deadline = Deadline::AfterMillis(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(timed.Check().code(), StatusCode::kDeadlineExceeded);

  CancellationSource source;
  source.Cancel();
  Interrupt cancelled;
  cancelled.token = source.token();
  EXPECT_EQ(cancelled.Check().code(), StatusCode::kCancelled);

  // Cancellation wins over an expired deadline: the caller asked first.
  Interrupt both;
  both.deadline = Deadline::AfterMillis(0);
  both.token = source.token();
  EXPECT_EQ(both.Check().code(), StatusCode::kCancelled);
}

using FpSpec = FailpointRegistry::Spec;

TEST(FailpointTest, DisarmedIsFree) {
  EXPECT_FALSE(FailpointRegistry::Active());
  EXPECT_TRUE(MaybeFail("fp.test.unarmed").ok());
  // No registry traffic when nothing is armed: counters stay empty.
  EXPECT_EQ(FailpointRegistry::Instance().GetCounters("fp.test.unarmed").hits,
            0u);
}

TEST(FailpointTest, OnceFiresExactlyOnce) {
  ScopedFailpoint fp("fp.test.once", FpSpec::Once());
  EXPECT_FALSE(MaybeFail("fp.test.once").ok());
  EXPECT_TRUE(MaybeFail("fp.test.once").ok());
  EXPECT_TRUE(MaybeFail("fp.test.once").ok());
  auto counters = FailpointRegistry::Instance().GetCounters("fp.test.once");
  EXPECT_EQ(counters.hits, 3u);
  EXPECT_EQ(counters.fires, 1u);
}

TEST(FailpointTest, NthFiresOnExactHit) {
  ScopedFailpoint fp("fp.test.nth", FpSpec::Nth(3));
  EXPECT_TRUE(MaybeFail("fp.test.nth").ok());
  EXPECT_TRUE(MaybeFail("fp.test.nth").ok());
  EXPECT_FALSE(MaybeFail("fp.test.nth").ok());
  EXPECT_TRUE(MaybeFail("fp.test.nth").ok());
}

TEST(FailpointTest, FromFiresFromHitOnward) {
  ScopedFailpoint fp("fp.test.from", FpSpec::From(2));
  EXPECT_TRUE(MaybeFail("fp.test.from").ok());
  EXPECT_FALSE(MaybeFail("fp.test.from").ok());
  EXPECT_FALSE(MaybeFail("fp.test.from").ok());
  EXPECT_EQ(FailpointRegistry::Instance().GetCounters("fp.test.from").fires,
            2u);
}

TEST(FailpointTest, ProbabilityIsSeededAndDeterministic) {
  auto run = [] {
    ScopedFailpoint fp("fp.test.prob", FpSpec::WithProbability(0.5, 99));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!MaybeFail("fp.test.prob").ok());
    }
    return fired;
  };
  std::vector<bool> first = run();
  EXPECT_EQ(first, run());  // re-arming reseeds: identical sequence
  size_t fires = std::count(first.begin(), first.end(), true);
  EXPECT_GT(fires, 16u);
  EXPECT_LT(fires, 48u);
}

TEST(FailpointTest, CountOnlyNeverFiresButCounts) {
  ScopedFailpoint fp("fp.test.count", FpSpec::CountOnly());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(MaybeFail("fp.test.count").ok());
  auto counters = FailpointRegistry::Instance().GetCounters("fp.test.count");
  EXPECT_EQ(counters.hits, 5u);
  EXPECT_EQ(counters.fires, 0u);
}

TEST(FailpointTest, ScopedGuardDisarmsOnExit) {
  {
    ScopedFailpoint fp("fp.test.scope", FpSpec::Always());
    EXPECT_TRUE(FailpointRegistry::Instance().IsArmed("fp.test.scope"));
    EXPECT_FALSE(MaybeFail("fp.test.scope").ok());
  }
  EXPECT_FALSE(FailpointRegistry::Instance().IsArmed("fp.test.scope"));
  EXPECT_TRUE(MaybeFail("fp.test.scope").ok());
}

TEST(FailpointTest, SuppressionShieldsCurrentThread) {
  ScopedFailpoint fp("fp.test.suppress", FpSpec::Always());
  {
    ScopedFailpointSuppression shield;
    EXPECT_TRUE(MaybeFail("fp.test.suppress").ok());
    {
      ScopedFailpointSuppression nested;  // nesting must compose
      EXPECT_TRUE(MaybeFail("fp.test.suppress").ok());
    }
    EXPECT_TRUE(MaybeFail("fp.test.suppress").ok());
  }
  EXPECT_FALSE(MaybeFail("fp.test.suppress").ok());
}

TEST(FailpointTest, FiredStatusNamesTheFailpoint) {
  ScopedFailpoint fp("fp.test.named", FpSpec::Always());
  Status status = MaybeFail("fp.test.named");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("fp.test.named"), std::string::npos);
}

TEST(FailpointTest, SnapshotListsArmedAndHitFailpoints) {
  ScopedFailpoint a("fp.test.snap_a", FpSpec::Once());
  ScopedFailpoint b("fp.test.snap_b", FpSpec::CountOnly());
  (void)MaybeFail("fp.test.snap_a");
  (void)MaybeFail("fp.test.snap_b");
  auto snapshot = FailpointRegistry::Instance().Snapshot();
  std::map<std::string, FailpointRegistry::Counters> byname(
      snapshot.begin(), snapshot.end());
  ASSERT_TRUE(byname.count("fp.test.snap_a"));
  ASSERT_TRUE(byname.count("fp.test.snap_b"));
  EXPECT_EQ(byname["fp.test.snap_a"].fires, 1u);
  EXPECT_EQ(byname["fp.test.snap_b"].fires, 0u);
}

TEST(FailpointTest, RearmResetsCounters) {
  auto& registry = FailpointRegistry::Instance();
  registry.Arm("fp.test.rearm", FpSpec::Always());
  (void)MaybeFail("fp.test.rearm");
  EXPECT_EQ(registry.GetCounters("fp.test.rearm").fires, 1u);
  registry.Arm("fp.test.rearm", FpSpec::Nth(2));
  EXPECT_EQ(registry.GetCounters("fp.test.rearm").hits, 0u);
  EXPECT_TRUE(MaybeFail("fp.test.rearm").ok());
  EXPECT_FALSE(MaybeFail("fp.test.rearm").ok());
  registry.Disarm("fp.test.rearm");
  EXPECT_FALSE(registry.IsArmed("fp.test.rearm"));
}

TEST(ClockTest, RealClockAdvances) {
  Clock* clock = Clock::Real();
  const int64_t a = clock->NowNanos();
  clock->SleepForNanos(1'000'000);
  EXPECT_GT(clock->NowNanos(), a);
}

TEST(ClockTest, ManualSimClockMovesOnlyWhenAdvanced) {
  SimulatedClock::Options opts;
  opts.auto_advance = false;
  SimulatedClock clock(opts);
  const int64_t a = clock.NowNanos();
  EXPECT_EQ(clock.NowNanos(), a);
  clock.AdvanceMillis(5);
  EXPECT_EQ(clock.NowNanos(), a + 5'000'000);
}

TEST(ClockTest, AutoAdvanceSleepIsImmediate) {
  SimulatedClock clock;  // auto-advance
  const int64_t a = clock.NowNanos();
  const auto real_start = std::chrono::steady_clock::now();
  clock.SleepForMillis(30'000);  // 30 simulated seconds
  EXPECT_GE(clock.NowNanos() - a, int64_t{30'000} * 1'000'000);
  EXPECT_LT(std::chrono::steady_clock::now() - real_start,
            std::chrono::seconds(5));
}

TEST(ClockTest, ManualSleeperWakesWhenAdvancedPastTarget) {
  SimulatedClock::Options opts;
  opts.auto_advance = false;
  SimulatedClock clock(opts);
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepForMillis(50);
    woke.store(true);
  });
  // Not yet: time has not moved.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  clock.AdvanceMillis(60);
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(ClockTest, DeadlineExpiresOnSimulatedTime) {
  SimulatedClock::Options opts;
  opts.auto_advance = false;
  SimulatedClock clock(opts);
  Deadline d = Deadline::AfterMillis(100, &clock);
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), 0);
  clock.AdvanceMillis(99);
  EXPECT_FALSE(d.Expired());
  clock.AdvanceMillis(2);
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.RemainingMillis(), 0);
}

TEST(ClockTest, DeadlineInfiniteNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
}

TEST(ClockTest, StopwatchMeasuresSimulatedTime) {
  SimulatedClock::Options opts;
  opts.auto_advance = false;
  SimulatedClock clock(opts);
  Stopwatch watch(&clock);
  clock.AdvanceMillis(250);
  EXPECT_DOUBLE_EQ(watch.ElapsedMillis(), 250.0);
  watch.Reset();
  EXPECT_DOUBLE_EQ(watch.ElapsedMillis(), 0.0);
}

TEST(ClockTest, WaitForPredHonorsNotification) {
  // Manual mode: simulated time never moves, so the wait can only end
  // via the cross-thread notification.
  SimulatedClock::Options opts;
  opts.auto_advance = false;
  SimulatedClock clock(opts);
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  std::thread notifier([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    {
      std::lock_guard<std::mutex> lock(mu);
      ready = true;
    }
    cv.notify_all();
  });
  bool got = false;
  {
    std::unique_lock<std::mutex> lock(mu);
    got = clock.WaitForPred(cv, lock, int64_t{60'000} * 1'000'000'000,
                            [&] { return ready; });
  }
  notifier.join();
  EXPECT_TRUE(got);
}

}  // namespace
}  // namespace structura
