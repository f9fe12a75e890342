#ifndef STRUCTURA_BENCH_BENCH_UTIL_H_
#define STRUCTURA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "corpus/records.h"
#include "obs/metrics.h"
#include "text/document.h"

namespace structura::bench {

/// A generated corpus plus its truth, sized by `cities` with proportional
/// people/companies. Every experiment derives its workload from this.
struct Workload {
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
};

inline Workload MakeWorkload(size_t cities, double dropout = 0.25,
                             double typo = 0.0, size_t news_pages = 0,
                             uint64_t seed = 42) {
  corpus::CorpusOptions options;
  options.num_cities = cities;
  options.num_people = cities * 2;
  options.num_companies = cities / 2;
  options.news_pages = news_pages;
  options.infobox_dropout = dropout;
  options.typo_prob = typo;
  options.seed = seed;
  Workload w;
  corpus::GenerateCorpus(options, &w.docs, &w.truth);
  return w;
}

/// Ground-truth oracle for simulated human feedback.
inline auto MakeOracle(const corpus::GroundTruth& truth) {
  return [&truth](const std::string& subject, const std::string& attribute)
             -> std::optional<std::string> {
    for (const corpus::FactTruth& f : truth.facts) {
      auto it = truth.canonical_names.find(f.entity);
      if (it == truth.canonical_names.end()) continue;
      if (it->second == subject && f.attribute == attribute) {
        return f.value;
      }
    }
    return std::nullopt;
  };
}

// ------------------------------------------------ bench JSON artifacts

/// Collects named scalar results and writes the BENCH_*.json artifact
/// every experiment emits (the bench-artifact trajectory started by
/// bench_e20): {"bench": id, "results": [{"name","value","unit"},…]}.
/// Output path resolution matches bench_e20: an explicit path argument
/// wins, then $STRUCTURA_BENCH_OUT, then `default_path`.
class BenchResultWriter {
 public:
  BenchResultWriter(std::string bench_id, std::string default_path)
      : bench_id_(std::move(bench_id)),
        default_path_(std::move(default_path)) {}

  void Add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back(Row{name, value, unit});
  }

  std::string ToJson() const {
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\n  \"bench\": \"" << obs::JsonEscape(bench_id_)
        << "\",\n  \"results\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      out << "    {\"name\": \"" << obs::JsonEscape(rows_[i].name)
          << "\", \"value\": " << rows_[i].value << ", \"unit\": \""
          << obs::JsonEscape(rows_[i].unit) << "\"}"
          << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return out.str();
  }

  /// Writes the artifact; `explicit_path` (e.g. a leftover argv[1])
  /// overrides the env/default resolution. Returns false on I/O error.
  bool Write(const std::string& explicit_path = "") const {
    std::string path = explicit_path;
    if (path.empty()) {
      const char* env_out = std::getenv("STRUCTURA_BENCH_OUT");
      path = env_out != nullptr ? env_out : default_path_;
    }
    std::ofstream out(path, std::ios::trunc);
    out << ToJson();
    out.close();
    if (!out) {
      std::fprintf(stderr, "bench %s: failed writing %s\n",
                   bench_id_.c_str(), path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Row {
    std::string name;
    double value = 0;
    std::string unit;
  };

  std::string bench_id_;
  std::string default_path_;
  std::vector<Row> rows_;
};

#if defined(BENCHMARK_BENCHMARK_H_)
// Only for binaries that included <benchmark/benchmark.h> *before* this
// header: a console reporter that also tees every per-iteration run (its
// time and its user counters) into a BenchResultWriter, and a drop-in
// BENCHMARK_MAIN() replacement that writes the JSON artifact after the
// console table.

class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(BenchResultWriter* writer) : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      // Aggregates (mean/median/stddev of --benchmark_repetitions) would
      // double-count the per-repetition rows.
      if (run.run_type == Run::RT_Aggregate) continue;
      writer_->Add(run.benchmark_name(), run.GetAdjustedRealTime(),
                   benchmark::GetTimeUnitString(run.time_unit));
      // User counters ride along as "<benchmark>/<counter>" rows; the
      // runner has already turned rate counters into per-second values.
      for (const auto& [name, counter] : run.counters) {
        writer_->Add(run.benchmark_name() + "/" + name, counter.value,
                     (counter.flags & benchmark::Counter::kIsRate) != 0
                         ? "1/s"
                         : "");
      }
    }
  }

 private:
  BenchResultWriter* writer_;
};

/// BENCHMARK_MAIN() replacement: runs the registered benchmarks with the
/// tee reporter, then writes BENCH_<id>.json (argv[1] overrides the
/// output path after benchmark flags are consumed, as in bench_e20).
inline int BenchmarkMainWithJson(int argc, char** argv,
                                 const std::string& bench_id,
                                 const std::string& default_path) {
  benchmark::Initialize(&argc, argv);
  std::string explicit_path;
  if (argc > 1 && argv[1][0] != '-') {
    explicit_path = argv[1];
    // Consume it so ReportUnrecognizedArguments stays quiet.
    for (int i = 1; i + 1 < argc; ++i) argv[i] = argv[i + 1];
    --argc;
  }
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  BenchResultWriter writer(bench_id, default_path);
  JsonTeeReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return writer.Write(explicit_path) ? 0 : 1;
}
#endif  // defined(BENCHMARK_BENCHMARK_H_)

}  // namespace structura::bench

#endif  // STRUCTURA_BENCH_BENCH_UTIL_H_
