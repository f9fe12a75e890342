// E21 — flight-recorder overhead. The always-on premise of the event
// journal and per-request cost accounting (DESIGN.md 5.8) only holds if
// recording is effectively free: an event append must stay in the tens
// of nanoseconds, and end-to-end serve throughput with the recorder on
// must sit within a few percent of the recorder off. This bench
// measures both directly: a tight journal-append loop (enabled and
// kill-switched), a ChargeCost loop, and a trivial-operator frontend
// driven at full speed in alternating recorder+accounting on and off
// rounds; the ratio reported is the median of the per-round ratios,
// with their min and max.
//
// Usage: bench_e21_flight_recorder [out.json]
//   (default output path: BENCH_e21.json in the working directory;
//    $STRUCTURA_BENCH_OUT overrides when no argument is given)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/flight_recorder.h"
#include "serve/frontend.h"

namespace structura {
namespace {

constexpr int kRepeats = 5;

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// ns per journal append over `ops` records.
double EventRecordNs(size_t ops) {
  std::vector<double> runs;
  for (int r = 0; r < kRepeats; ++r) {
    double start = NowNs();
    for (size_t i = 0; i < ops; ++i) {
      obs::RecordEvent(obs::EventCategory::kCheckpoint,
                       obs::EventCode::kCheckpointBegin, i, 0, 0, "bench");
    }
    runs.push_back((NowNs() - start) / static_cast<double>(ops));
  }
  return Median(runs);
}

/// ns per ChargeCost inside an installed cost context.
double ChargeCostNs(size_t ops) {
  obs::CostAccumulator acc;
  obs::ScopedCostContext scope(&acc);
  std::vector<double> runs;
  for (int r = 0; r < kRepeats; ++r) {
    double start = NowNs();
    for (size_t i = 0; i < ops; ++i) {
      obs::ChargeCost(obs::CostDim::kRowsScanned, 1);
    }
    runs.push_back((NowNs() - start) / static_cast<double>(ops));
  }
  return Median(runs);
}

/// Recorder-on and recorder-off serve throughput, round by round.
struct ServeRounds {
  std::vector<double> on, off, ratio;  // ops/s, ops/s, on/off
};

void SetRecorder(bool on) {
  obs::SetEventJournalEnabled(on);
  obs::SetCostAccountingEnabled(on);
}

/// End-to-end frontend throughput over a trivial operator, submitted in
/// batches so the worker pool stays saturated. On and off rounds
/// alternate on one frontend (and swap order every round), so host drift
/// lands on both sides of each round's ratio alike.
ServeRounds ServeOnOff(size_t ops_per_round, int rounds) {
  serve::Frontend::Options options;
  options.num_threads = 2;
  options.max_queue_depth = 4096;
  serve::Frontend fe(options);
  fe.RegisterOperator("noop",
                      [](const serve::RequestContext&) { return Status::OK(); });
  // Warm the pool and the operator's metric handles.
  for (int i = 0; i < 256; ++i) {
    (void)fe.Call("noop", serve::RequestContext{});
  }
  constexpr size_t kBatch = 512;
  std::vector<std::future<Status>> batch;
  batch.reserve(kBatch);
  auto ops_per_sec = [&](bool recorder_on) {
    SetRecorder(recorder_on);
    double start = NowNs();
    for (size_t done = 0; done < ops_per_round;) {
      size_t n = std::min(kBatch, ops_per_round - done);
      batch.clear();
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(fe.Submit("noop", serve::RequestContext{}));
      }
      for (std::future<Status>& f : batch) (void)f.get();
      done += n;
    }
    return static_cast<double>(ops_per_round) / ((NowNs() - start) / 1e9);
  };
  ServeRounds out;
  for (int r = 0; r < rounds; ++r) {
    double on, off;
    if (r % 2 == 0) {
      on = ops_per_sec(true);
      off = ops_per_sec(false);
    } else {
      off = ops_per_sec(false);
      on = ops_per_sec(true);
    }
    out.on.push_back(on);
    out.off.push_back(off);
    out.ratio.push_back(on / off);
  }
  SetRecorder(true);
  return out;
}

}  // namespace
}  // namespace structura

int main(int argc, char** argv) {
  using structura::bench::BenchResultWriter;

  constexpr size_t kEventOps = 1'000'000;
  constexpr size_t kServeOpsPerRound = 20'000;
  constexpr int kServeRounds = 31;

  double record_ns = structura::EventRecordNs(kEventOps);
  structura::obs::SetEventJournalEnabled(false);
  double record_off_ns = structura::EventRecordNs(kEventOps);
  structura::obs::SetEventJournalEnabled(true);
  double charge_ns = structura::ChargeCostNs(kEventOps);

  structura::ServeRounds serve =
      structura::ServeOnOff(kServeOpsPerRound, kServeRounds);
  double serve_on = structura::Median(serve.on);
  double serve_off = structura::Median(serve.off);
  double ratio = structura::Median(serve.ratio);
  double ratio_min = *std::min_element(serve.ratio.begin(), serve.ratio.end());
  double ratio_max = *std::max_element(serve.ratio.begin(), serve.ratio.end());

  std::printf("event_record            %8.1f ns/op\n", record_ns);
  std::printf("event_record_disabled   %8.1f ns/op\n", record_off_ns);
  std::printf("charge_cost             %8.1f ns/op\n", charge_ns);
  std::printf("serve_recorder_on       %10.0f ops/s (median of %d rounds)\n",
              serve_on, kServeRounds);
  std::printf("serve_recorder_off      %10.0f ops/s\n", serve_off);
  std::printf("serve_on_off_ratio      %8.3f (median; rounds %.3f-%.3f)\n",
              ratio, ratio_min, ratio_max);

  BenchResultWriter writer("e21_flight_recorder", "BENCH_e21.json");
  writer.Add("event_record", record_ns, "ns/op");
  writer.Add("event_record_disabled", record_off_ns, "ns/op");
  writer.Add("charge_cost", charge_ns, "ns/op");
  writer.Add("serve_recorder_on", serve_on, "ops/s");
  writer.Add("serve_recorder_off", serve_off, "ops/s");
  writer.Add("serve_on_off_ratio", ratio, "ratio");
  writer.Add("serve_on_off_ratio_min", ratio_min, "ratio");
  writer.Add("serve_on_off_ratio_max", ratio_max, "ratio");
  return writer.Write(argc > 1 ? argv[1] : "") ? 0 : 1;
}
