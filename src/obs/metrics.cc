#include "obs/metrics.h"

#include <algorithm>
#include <set>
#include <thread>

#include "common/strings.h"

namespace structura::obs {

namespace {
std::atomic<bool> g_metrics_enabled{true};
}  // namespace

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

namespace internal {

size_t ThreadShard() {
  // Hash of the thread id, computed once per thread.
  thread_local const size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return shard;
}

}  // namespace internal

uint64_t MetricsSnapshot::HistogramValue::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  auto target = static_cast<uint64_t>(q * static_cast<double>(count));
  if (target == 0) target = 1;
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    cumulative += buckets[b];
    if (cumulative >= target) return BucketUpperBound(b);
  }
  return BucketUpperBound(buckets.size() - 1);
}

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked so metrics outlive every static destructor that might still
  // report (thread rings, late-logging destructors).
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

namespace {

template <typename T>
T* GetOrAdd(std::map<std::string, std::unique_ptr<T>>* metrics,
            const std::string& name) {
  auto it = metrics->find(name);
  if (it == metrics->end()) {
    it = metrics->emplace(name, std::make_unique<T>(name)).first;
  }
  return it->second.get();
}

/// Per-name totals over several snapshots (a registry's own metrics
/// plus those of the registries it includes).
struct Totals {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, MetricsSnapshot::HistogramValue> histograms;

  void Add(const MetricsSnapshot& part) {
    for (const auto& [name, v] : part.counters) counters[name] += v;
    for (const auto& [name, v] : part.gauges) gauges[name] += v;
    for (const MetricsSnapshot::HistogramValue& h : part.histograms) {
      MetricsSnapshot::HistogramValue& into = histograms[h.name];
      into.name = h.name;
      into.count += h.count;
      into.sum += h.sum;
      for (size_t b = 0; b < Histogram::kBuckets; ++b) {
        into.buckets[b] += h.buckets[b];
      }
    }
  }

  MetricsSnapshot ToSnapshot() {
    MetricsSnapshot snap;
    snap.counters.assign(counters.begin(), counters.end());
    snap.gauges.assign(gauges.begin(), gauges.end());
    for (auto& [name, h] : histograms) snap.histograms.push_back(std::move(h));
    return snap;
  }
};

}  // namespace

MetricsRegistry::MetricsRegistry(MetricsRegistry* parent) : parent_(parent) {
  std::lock_guard<std::mutex> lock(parent_->mutex_);
  parent_->children_.push_back(this);
}

MetricsRegistry::~MetricsRegistry() {
  if (parent_ != nullptr) parent_->Fold(this);
}

void MetricsRegistry::Fold(MetricsRegistry* child) {
  // One critical section with Snapshot(): a concurrent snapshot sees
  // the child either included or folded, never both or neither.
  std::lock_guard<std::mutex> lock(mutex_);
  children_.erase(std::find(children_.begin(), children_.end(), child));
  std::lock_guard<std::mutex> child_lock(child->mutex_);
  for (const auto& [name, c] : child->counters_) {
    GetOrAdd(&counters_, name)->Add(c->Value());
  }
  for (const auto& [name, h] : child->histograms_) {
    Histogram* into = GetOrAdd(&histograms_, name);
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      into->buckets_[b].fetch_add(
          h->buckets_[b].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    into->sums_[0].v.fetch_add(h->Sum(), std::memory_order_relaxed);
  }
  for (const auto& [name, g] : child->gauges_) GetOrAdd(&gauges_, name);
  for (const auto& [name, fg] : child->gauge_fns_) GetOrAdd(&gauges_, name);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return GetOrAdd(&counters_, name);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return GetOrAdd(&gauges_, name);
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return GetOrAdd(&histograms_, name);
}

uint64_t MetricsRegistry::RegisterGaugeFn(const std::string& name,
                                          GaugeFn fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t id = next_gauge_fn_id_++;
  gauge_fns_[name] = FnGauge{id, std::move(fn)};
  return id;
}

void MetricsRegistry::UnregisterGaugeFn(const std::string& name,
                                        uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauge_fns_.find(name);
  if (it != gauge_fns_.end() && it->second.id == id) gauge_fns_.erase(it);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  Totals totals;
  // Copy the callback list out so user callbacks run without the
  // registry lock held (they may touch other locks, e.g. a pool mutex).
  std::vector<std::pair<std::string, GaugeFn>> fns;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, c] : counters_) totals.counters[name] += c->Value();
    for (const auto& [name, g] : gauges_) totals.gauges[name] += g->Value();
    for (const auto& [name, h] : histograms_) {
      MetricsSnapshot::HistogramValue& hv = totals.histograms[name];
      hv.name = name;
      hv.sum += h->Sum();
      for (size_t b = 0; b < Histogram::kBuckets; ++b) {
        uint64_t n = h->buckets_[b].load(std::memory_order_relaxed);
        hv.buckets[b] += n;
        hv.count += n;
      }
    }
    for (const auto& [name, fg] : gauge_fns_) fns.emplace_back(name, fg.fn);
    // Included registries are read under this lock, so none can fold
    // into this registry halfway through the snapshot.
    for (const MetricsRegistry* child : children_) {
      totals.Add(child->Snapshot());
    }
  }
  for (auto& [name, fn] : fns) totals.gauges[name] += fn ? fn() : 0;
  return totals.ToSnapshot();
}

namespace {

std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

}  // namespace

std::string RenderPrometheus(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " counter\n";
    out += StrFormat("%s %llu\n", pname.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " gauge\n";
    out += StrFormat("%s %lld\n", pname.c_str(),
                     static_cast<long long>(value));
  }
  for (const auto& h : snap.histograms) {
    std::string pname = PrometheusName(h.name);
    out += "# TYPE " + pname + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      cumulative += h.buckets[b];
      out += StrFormat(
          "%s_bucket{le=\"%llu\"} %llu\n", pname.c_str(),
          static_cast<unsigned long long>(BucketUpperBound(b)),
          static_cast<unsigned long long>(cumulative));
    }
    out += StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", pname.c_str(),
                     static_cast<unsigned long long>(h.count));
    out += StrFormat("%s_sum %llu\n", pname.c_str(),
                     static_cast<unsigned long long>(h.sum));
    out += StrFormat("%s_count %llu\n", pname.c_str(),
                     static_cast<unsigned long long>(h.count));
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

std::string RenderJson(const MetricsSnapshot& snap) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("\"%s\":%llu", JsonEscape(name).c_str(),
                     static_cast<unsigned long long>(value));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("\"%s\":%lld", JsonEscape(name).c_str(),
                     static_cast<long long>(value));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : snap.histograms) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("\"%s\":{\"count\":%llu,\"sum\":%llu,\"buckets\":[",
                     JsonEscape(h.name).c_str(),
                     static_cast<unsigned long long>(h.count),
                     static_cast<unsigned long long>(h.sum));
    bool first_bucket = true;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += StrFormat("[%llu,%llu]",
                       static_cast<unsigned long long>(BucketUpperBound(b)),
                       static_cast<unsigned long long>(h.buckets[b]));
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string RenderCompact(const MetricsSnapshot& snap) {
  // Group scalar metrics by their top-level prefix ("serve", "wal", ...)
  // so the status report reads as one line per subsystem.
  auto prefix_of = [](const std::string& name) {
    size_t dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
  };
  std::set<std::string> prefixes;
  for (const auto& [name, value] : snap.counters) {
    if (value != 0) prefixes.insert(prefix_of(name));
  }
  for (const auto& [name, value] : snap.gauges) {
    if (value != 0) prefixes.insert(prefix_of(name));
  }
  std::string out;
  for (const std::string& prefix : prefixes) {
    std::string line = "metrics[" + prefix + "]:";
    auto short_name = [&](const std::string& name) {
      return name.size() > prefix.size() ? name.substr(prefix.size() + 1)
                                         : name;
    };
    for (const auto& [name, value] : snap.counters) {
      if (value == 0 || prefix_of(name) != prefix) continue;
      line += StrFormat(" %s=%llu", short_name(name).c_str(),
                        static_cast<unsigned long long>(value));
    }
    for (const auto& [name, value] : snap.gauges) {
      if (value == 0 || prefix_of(name) != prefix) continue;
      line += StrFormat(" %s=%lld", short_name(name).c_str(),
                        static_cast<long long>(value));
    }
    out += line + "\n";
  }
  for (const auto& h : snap.histograms) {
    if (h.count == 0) continue;
    out += StrFormat(
        "latency[%s]: count=%llu mean=%.0f p50<=%llu p99<=%llu\n",
        h.name.c_str(), static_cast<unsigned long long>(h.count), h.Mean(),
        static_cast<unsigned long long>(h.Quantile(0.5)),
        static_cast<unsigned long long>(h.Quantile(0.99)));
  }
  return out;
}

const char* InternName(const std::string& name) {
  static std::mutex* mu = new std::mutex();
  static std::set<std::string>* pool = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(*mu);
  return pool->insert(name).first->c_str();
}

}  // namespace structura::obs
