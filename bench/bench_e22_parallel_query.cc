// E22 — morsel-parallel query execution and the epoch-versioned result
// cache. Three questions: (a) how does scan/aggregate throughput scale
// with worker count (1/2/4/8) under the byte-identical-results
// contract; (b) what does a warm cache hit cost relative to the cold
// execution it replaces; (c) what does an invalidation storm (a writer
// bumping epochs between every query) cost — O(1) bumps plus lazy
// entry teardown, never a cache walk.

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "query/relation.h"
#include "query/result_cache.h"
#include "query/structured_query.h"

namespace structura {
namespace {

using query::AggFn;
using query::AggSpec;
using query::CompareOp;
using query::Condition;
using query::EpochVector;
using query::ExecutorOptions;
using query::QueryResultCache;
using query::Relation;
using query::StructuredQuery;
using query::Value;

Relation MakeFacts(size_t rows) {
  Relation rel({"g", "x", "y"});
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (size_t i = 0; i < rows; ++i) {
    rel.Append({Value::Str("g" + std::to_string(next() % 64)),
                Value::Int(static_cast<int64_t>(next() % 10000)),
                Value::Double(static_cast<double>(next() % 1000000) / 997.0)})
        .ok();
  }
  return rel;
}

ExecutorOptions OptsFor(ThreadPool* pool, size_t parallelism) {
  ExecutorOptions o;
  o.parallelism = parallelism;
  o.pool = parallelism > 1 ? pool : nullptr;
  return o;
}

void BM_ParallelFilterScan(benchmark::State& state) {
  size_t parallelism = static_cast<size_t>(state.range(0));
  static Relation facts = MakeFacts(400000);
  static ThreadPool pool(8);
  ExecutorOptions opts = OptsFor(&pool, parallelism);
  std::vector<Condition> conds{
      Condition{"x", CompareOp::kGt, Value::Int(2500)},
      Condition{"x", CompareOp::kLe, Value::Int(7500)}};
  for (auto _ : state) {
    auto out = query::Filter(facts, conds, Interrupt{}, opts);
    if (!out.ok()) std::abort();
    benchmark::DoNotOptimize(out->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(facts.size()));
}
BENCHMARK(BM_ParallelFilterScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_ParallelGroupAggregate(benchmark::State& state) {
  size_t parallelism = static_cast<size_t>(state.range(0));
  static Relation facts = MakeFacts(400000);
  static ThreadPool pool(8);
  ExecutorOptions opts = OptsFor(&pool, parallelism);
  std::vector<AggSpec> aggs{AggSpec{AggFn::kCount, "", "cnt"},
                            AggSpec{AggFn::kSum, "y", "sum_y"},
                            AggSpec{AggFn::kAvg, "y", "avg_y"},
                            AggSpec{AggFn::kMin, "x", "min_x"}};
  for (auto _ : state) {
    auto out = query::Aggregate(facts, {"g"}, aggs, Interrupt{}, opts);
    if (!out.ok()) std::abort();
    benchmark::DoNotOptimize(out->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(facts.size()));
}
BENCHMARK(BM_ParallelGroupAggregate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_CacheColdExecution(benchmark::State& state) {
  static Relation facts = MakeFacts(200000);
  StructuredQuery q;
  q.where = {Condition{"x", CompareOp::kGt, Value::Int(5000)}};
  q.group_by = {"g"};
  q.aggregates = {AggSpec{AggFn::kAvg, "y", "avg_y"}};
  for (auto _ : state) {
    auto out = query::ExecuteStructuredQuery(q, facts);
    if (!out.ok()) std::abort();
    benchmark::DoNotOptimize(out->size());
  }
}
BENCHMARK(BM_CacheColdExecution)->Unit(benchmark::kMicrosecond);

void BM_CacheWarmHit(benchmark::State& state) {
  static Relation facts = MakeFacts(200000);
  StructuredQuery q;
  q.where = {Condition{"x", CompareOp::kGt, Value::Int(5000)}};
  q.group_by = {"g"};
  q.aggregates = {AggSpec{AggFn::kAvg, "y", "avg_y"}};
  QueryResultCache cache;
  auto cold = query::ExecuteStructuredQuery(q, facts);
  if (!cold.ok()) std::abort();
  cache.Insert("q", cache.epochs().Snapshot({"view:facts"}), *cold);
  for (auto _ : state) {
    auto hit = cache.Lookup("q");
    if (!hit.has_value()) std::abort();
    benchmark::DoNotOptimize(hit->size());
  }
}
BENCHMARK(BM_CacheWarmHit)->Unit(benchmark::kMicrosecond);

void BM_CacheInvalidationStorm(benchmark::State& state) {
  // A writer bumps the epoch before every lookup: every query pays a
  // miss + re-insert, and the bump itself must stay O(1).
  static Relation facts = MakeFacts(50000);
  StructuredQuery q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec{AggFn::kCount, "", "cnt"}};
  QueryResultCache cache;
  for (auto _ : state) {
    cache.epochs().Bump("view:facts");
    EpochVector at = cache.epochs().Snapshot({"view:facts"});
    if (auto hit = cache.Lookup("q")) {
      std::abort();  // storm must never hit
    }
    auto out = query::ExecuteStructuredQuery(q, facts);
    if (!out.ok()) std::abort();
    cache.Insert("q", std::move(at), std::move(*out));
  }
}
BENCHMARK(BM_CacheInvalidationStorm)->Unit(benchmark::kMicrosecond);

void BM_EpochBump(benchmark::State& state) {
  QueryResultCache cache;
  for (auto _ : state) {
    cache.epochs().Bump("table:beliefs");
  }
}
BENCHMARK(BM_EpochBump);

}  // namespace
}  // namespace structura

int main(int argc, char** argv) {
  return structura::bench::BenchmarkMainWithJson(
      argc, argv, "e22_parallel_query", "BENCH_e22.json");
}
