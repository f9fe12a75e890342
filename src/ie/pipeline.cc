#include "ie/pipeline.h"

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace structura::ie {

namespace {
struct IeMetrics {
  obs::Counter* runs;
  obs::Counter* docs_processed;
  obs::Counter* facts_extracted;
  obs::Counter* faults_dropped;
  obs::Histogram* run_latency_ns;
};
IeMetrics& Metrics() {
  static IeMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    return IeMetrics{
        r.GetCounter("ie.runs"),
        r.GetCounter("ie.docs_processed"),
        r.GetCounter("ie.facts_extracted"),
        r.GetCounter("ie.faults_dropped"),
        r.GetHistogram("ie.run.latency_ns"),
    };
  }();
  return m;
}
}  // namespace

std::vector<const Extractor*> Views(const std::vector<ExtractorPtr>& v) {
  std::vector<const Extractor*> out;
  out.reserve(v.size());
  for (const ExtractorPtr& p : v) out.push_back(p.get());
  return out;
}

FactSet RunExtractors(const std::vector<const Extractor*>& extractors,
                      const text::DocumentCollection& docs) {
  TRACE_SPAN("ie.extract");
  IeMetrics& im = Metrics();
  im.runs->Increment();
  obs::ScopedLatency latency(im.run_latency_ns);
  FactSet set;
  uint64_t facts = 0;
  for (const text::Document& doc : docs.docs) {
    im.docs_processed->Increment();
    for (const Extractor* ex : extractors) {
      // Best-effort: an injected extractor fault drops this (doc,
      // extractor) pair's facts instead of aborting the pipeline.
      if (!MaybeFail("ie.extract").ok()) {
        im.faults_dropped->Increment();
        continue;
      }
      for (ExtractedFact& fact : ex->Extract(doc)) {
        ++facts;
        set.Add(std::move(fact));
      }
    }
  }
  im.facts_extracted->Add(facts);
  return set;
}

}  // namespace structura::ie
