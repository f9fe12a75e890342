// E5 — Section 4, physical layer: "IE and II are often very computation
// intensive ... we need parallel processing in the physical layer,"
// via "Map-Reduce-like processes". The claim is data-parallel IE: we
// time System::RunProgram EXTRACT (the executor's morsel-parallel doc
// loop, whole standard suite, 525 docs) at query_parallelism 1/2/4/8
// on wall-clock time, beside the sequential ie::RunExtractors. The
// fault run serves that EXTRACT through a Frontend with
// `serve.op.extract` armed at 0/10/30%: the retry loop absorbs the
// failures and every answer keeps the fault-free row count.
// Writes BENCH_e5.json.

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include <cstdlib>
#include <memory>
#include <string>

#include "common/failpoint.h"
#include "core/system.h"
#include "ie/pipeline.h"
#include "ie/standard.h"
#include "serve/frontend.h"

namespace structura {
namespace {

constexpr size_t kCities = 150;  // 150 cities + 300 people + 75 companies

const char* const kExtractProgram =
    "CREATE VIEW facts AS EXTRACT infobox, temp_sentence, "
    "population_sentence, founded_sentence, elevation_sentence, "
    "mayor_sentence, residence_sentence FROM pages;";

const bench::Workload& Corpus() {
  static const bench::Workload w = bench::MakeWorkload(kCities);
  return w;
}

std::unique_ptr<core::System> MakeSystem(size_t parallelism) {
  core::System::Options options;
  options.query_parallelism = parallelism;
  auto sys = core::System::Create(options);
  if (!sys.ok()) std::abort();
  (*sys)->RegisterStandardOperators();
  if (!(*sys)->IngestCrawl(Corpus().docs).ok()) std::abort();
  return std::move(sys).value();
}

/// Runs the EXTRACT program; returns the fact view's row count.
Result<size_t> Extract(core::System* sys) {
  STRUCTURA_RETURN_IF_ERROR(sys->RunProgram(kExtractProgram).status());
  return sys->View("facts")->size();
}

void SetDocsProcessed(benchmark::State& state) {
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Corpus().docs.size()));
}

void BM_SequentialExtraction(benchmark::State& state) {
  auto suite = ie::MakeStandardSuite();
  auto views = ie::Views(suite);
  size_t facts = 0;
  for (auto _ : state) {
    ie::FactSet set = ie::RunExtractors(views, Corpus().docs);
    facts = set.size();
    benchmark::DoNotOptimize(set);
  }
  state.counters["facts"] = static_cast<double>(facts);
  SetDocsProcessed(state);
}
BENCHMARK(BM_SequentialExtraction)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ParallelExtract(benchmark::State& state) {
  std::unique_ptr<core::System> sys =
      MakeSystem(static_cast<size_t>(state.range(0)));
  size_t rows = 0;
  for (auto _ : state) {
    Result<size_t> n = Extract(sys.get());
    if (!n.ok()) {
      state.SkipWithError(n.status().ToString().c_str());
      return;
    }
    rows = *n;
  }
  state.counters["rows"] = static_cast<double>(rows);
  SetDocsProcessed(state);
}
BENCHMARK(BM_ParallelExtract)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_ExtractRetriesUnderFaults(benchmark::State& state) {
  std::unique_ptr<core::System> sys = MakeSystem(4);
  Result<size_t> expected = Extract(sys.get());
  if (!expected.ok()) std::abort();

  serve::Frontend::Options fopts;
  fopts.num_threads = 1;
  // Breakers stay closed: this run measures the retry loop alone.
  fopts.breaker.failure_threshold = 1000000;
  serve::Frontend fe(fopts);
  size_t rows = 0;
  fe.RegisterOperator("extract", [&](const serve::RequestContext&) {
    STRUCTURA_ASSIGN_OR_RETURN(rows, Extract(sys.get()));
    return Status::OK();
  });
  ScopedFailpoint fault(
      "serve.op.extract",
      FailpointRegistry::Spec::WithProbability(
          static_cast<double>(state.range(0)) / 100.0, 5));
  for (auto _ : state) {
    serve::RequestContext ctx;
    ctx.retry_budget = 32;
    Status s = fe.Call("extract", std::move(ctx));
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    if (rows != *expected) {
      state.SkipWithError("row count differs from the fault-free run");
      return;
    }
  }
  const double retries = static_cast<double>(fe.Counters().retries);
  state.counters["retries"] = retries;
  state.counters["retries_per_request"] =
      benchmark::Counter(retries, benchmark::Counter::kAvgIterations);
  state.counters["rows"] = static_cast<double>(rows);
  SetDocsProcessed(state);
}
BENCHMARK(BM_ExtractRetriesUnderFaults)->Arg(0)->Arg(10)->Arg(30)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace structura

int main(int argc, char** argv) {
  return structura::bench::BenchmarkMainWithJson(
      argc, argv, "e5_parallel_extract", "BENCH_e5.json");
}
