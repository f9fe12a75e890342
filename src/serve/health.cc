#include "serve/health.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "obs/flight_recorder.h"

namespace structura::serve {

// The shared escaper (obs/metrics.h) — one implementation for every
// hand-rolled JSON surface, so names with quotes/backslashes/control
// characters always produce parseable output.
using obs::JsonEscape;

const char* HealthStateName(HealthState s) {
  switch (s) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kCritical:
      return "critical";
  }
  return "?";
}

HealthModel::HealthModel(Options options) : options_(options) {}

uint64_t HealthModel::Register(const std::string& subsystem,
                               const std::string& source, SignalFn fn) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Replacing an existing (subsystem, source) pair must give the same
  // never-runs-again guarantee Detach gives, so wait out any in-flight
  // evaluation before dropping the old fn.
  idle_cv_.wait(lock, [&] { return !evaluating_; });
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.subsystem == subsystem && it->second.source == source) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  uint64_t id = next_id_++;
  Entry e;
  e.subsystem = subsystem;
  e.source = source;
  e.fn = std::move(fn);
  entries_.emplace(id, std::move(e));
  return id;
}

void HealthModel::Detach(uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  // An in-flight Evaluate() runs fn copies with the lock released; once
  // it finishes applying results it clears `evaluating_`. Waiting here
  // guarantees the detached fn can never run again after we return.
  idle_cv_.wait(lock, [&] { return !evaluating_; });
  entries_.erase(id);
  PublishGaugesLocked();
}

void HealthModel::Evaluate() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return !evaluating_; });
  evaluating_ = true;
  std::vector<std::pair<uint64_t, SignalFn>> work;
  work.reserve(entries_.size());
  for (const auto& [id, e] : entries_) work.emplace_back(id, e.fn);
  lock.unlock();

  // Signals run unlocked so they may take their own locks (breaker
  // mutexes, pool stats). `evaluating_` keeps Detach/Register parked
  // until the results are applied, so the fn copies stay valid.
  std::vector<std::pair<uint64_t, HealthSample>> results;
  results.reserve(work.size());
  for (auto& [id, fn] : work) results.emplace_back(id, fn());

  lock.lock();
  for (auto& [id, sample] : results) {
    auto it = entries_.find(id);
    if (it != entries_.end()) ApplyLocked(&it->second, sample);
  }
  ++evaluations_;
  PublishGaugesLocked();
  evaluating_ = false;
  idle_cv_.notify_all();
}

void HealthModel::ApplyLocked(Entry* e, const HealthSample& sample) {
  if (sample.state >= e->state) {
    // Same or worse: adopt immediately (and refresh the reason).
    if (sample.state != e->state) {
      ++e->transitions;
      ++transitions_;
      transitions_counter_->Increment();
      // Flight recorder: the verdict source goes in the detail so a
      // bundle tells integrity-driven demotions from breaker-driven
      // ones. Subsystem/source vocabularies are bounded → internable.
      obs::RecordEvent(obs::EventCategory::kHealth,
                       obs::EventCode::kHealthDemote,
                       static_cast<uint64_t>(e->state),
                       static_cast<uint64_t>(sample.state), 0,
                       obs::InternName(e->subsystem + "/" + e->source));
    }
    e->state = sample.state;
    e->reason = sample.reason;
    e->improve_streak = 0;
    return;
  }
  // Better: promotion needs a streak — one lucky probe is not recovery.
  if (++e->improve_streak >= options_.promote_after) {
    obs::RecordEvent(obs::EventCategory::kHealth,
                     obs::EventCode::kHealthPromote,
                     static_cast<uint64_t>(e->state),
                     static_cast<uint64_t>(sample.state), 0,
                     obs::InternName(e->subsystem + "/" + e->source));
    e->state = sample.state;
    e->reason = sample.reason;
    e->improve_streak = 0;
    ++e->transitions;
    ++transitions_;
    transitions_counter_->Increment();
  }
}

void HealthModel::PublishGaugesLocked() {
  std::map<std::string, HealthState> worst;
  HealthState overall = HealthState::kHealthy;
  for (const auto& [id, e] : entries_) {
    HealthState& w = worst.try_emplace(e.subsystem, HealthState::kHealthy)
                         .first->second;
    w = std::max(w, e.state);
    overall = std::max(overall, e.state);
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  for (const auto& [name, state] : worst) {
    registry.GetGauge("health." + name)->Set(static_cast<int64_t>(state));
  }
  registry.GetGauge("health.overall")->Set(static_cast<int64_t>(overall));
}

HealthState HealthModel::StateOf(const std::string& subsystem) const {
  std::lock_guard<std::mutex> lock(mutex_);
  HealthState worst = HealthState::kHealthy;
  for (const auto& [id, e] : entries_) {
    if (e.subsystem == subsystem) worst = std::max(worst, e.state);
  }
  return worst;
}

std::string HealthModel::ReasonOf(const std::string& subsystem) const {
  std::lock_guard<std::mutex> lock(mutex_);
  HealthState worst = HealthState::kHealthy;
  std::string reason;
  for (const auto& [id, e] : entries_) {
    if (e.subsystem != subsystem) continue;
    if (e.state >= worst && !e.reason.empty()) reason = e.reason;
    worst = std::max(worst, e.state);
  }
  return worst == HealthState::kHealthy ? std::string() : reason;
}

HealthState HealthModel::Overall() const {
  std::lock_guard<std::mutex> lock(mutex_);
  HealthState worst = HealthState::kHealthy;
  for (const auto& [id, e] : entries_) worst = std::max(worst, e.state);
  return worst;
}

uint64_t HealthModel::evaluations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evaluations_;
}

uint64_t HealthModel::transitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transitions_;
}

std::vector<HealthModel::SourceStatus> HealthModel::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SourceStatus> out;
  out.reserve(entries_.size());
  for (const auto& [id, e] : entries_) {
    SourceStatus s;
    s.subsystem = e.subsystem;
    s.source = e.source;
    s.state = e.state;
    s.reason = e.reason;
    s.transitions = e.transitions;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const SourceStatus& a, const SourceStatus& b) {
              return std::tie(a.subsystem, a.source) <
                     std::tie(b.subsystem, b.source);
            });
  return out;
}

std::string HealthModel::ToJson() const {
  std::vector<SourceStatus> sources = Snapshot();
  uint64_t evals;
  uint64_t trans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    evals = evaluations_;
    trans = transitions_;
  }
  HealthState overall = HealthState::kHealthy;
  for (const SourceStatus& s : sources) overall = std::max(overall, s.state);

  std::string out = "{";
  out += StrFormat("\"overall\":\"%s\",\"evaluations\":%llu,"
                   "\"transitions\":%llu,\"subsystems\":{",
                   HealthStateName(overall),
                   static_cast<unsigned long long>(evals),
                   static_cast<unsigned long long>(trans));
  size_t i = 0;
  while (i < sources.size()) {
    const std::string& subsystem = sources[i].subsystem;
    HealthState worst = HealthState::kHealthy;
    size_t j = i;
    for (; j < sources.size() && sources[j].subsystem == subsystem; ++j) {
      worst = std::max(worst, sources[j].state);
    }
    if (i > 0) out += ',';
    out += StrFormat("\"%s\":{\"state\":\"%s\",\"sources\":{",
                     JsonEscape(subsystem).c_str(), HealthStateName(worst));
    for (size_t k = i; k < j; ++k) {
      if (k > i) out += ',';
      out += StrFormat(
          "\"%s\":{\"state\":\"%s\",\"reason\":\"%s\",\"transitions\":%llu}",
          JsonEscape(sources[k].source).c_str(),
          HealthStateName(sources[k].state),
          JsonEscape(sources[k].reason).c_str(),
          static_cast<unsigned long long>(sources[k].transitions));
    }
    out += "}}";
    i = j;
  }
  out += "}}";
  return out;
}

}  // namespace structura::serve
