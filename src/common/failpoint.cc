#include "common/failpoint.h"

#include "common/strings.h"

namespace structura {

std::atomic<int> FailpointRegistry::armed_count_{0};

FailpointRegistry& FailpointRegistry::Instance() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

void FailpointRegistry::Arm(const std::string& name, Spec spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  if (entry.spec.mode == Spec::Mode::kOff &&
      spec.mode != Spec::Mode::kOff) {
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  }
  entry.spec = spec;
  entry.counters = Counters{};
  entry.rng = Rng(spec.seed);
}

void FailpointRegistry::Disarm(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return;
  if (it->second.spec.mode != Spec::Mode::kOff) {
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  it->second.spec.mode = Spec::Mode::kOff;
}

void FailpointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : entries_) {
    if (entry.spec.mode != Spec::Mode::kOff) {
      armed_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  entries_.clear();
}

bool FailpointRegistry::IsArmed(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  return it != entries_.end() &&
         it->second.spec.mode != Spec::Mode::kOff;
}

FailpointRegistry::Counters FailpointRegistry::GetCounters(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  return it == entries_.end() ? Counters{} : it->second.counters;
}

std::vector<std::pair<std::string, FailpointRegistry::Counters>>
FailpointRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, Counters>> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.emplace_back(name, entry.counters);
  }
  return out;
}

namespace {

/// Applies the armed firing policy to one evaluation. Caller holds the
/// registry mutex.
bool PolicyFires(FailpointRegistry::Spec& spec, uint64_t hit, Rng& rng) {
  switch (spec.mode) {
    case FailpointRegistry::Spec::Mode::kOff:
      return false;
    case FailpointRegistry::Spec::Mode::kAlways:
      return true;
    case FailpointRegistry::Spec::Mode::kNth:
      return hit == spec.n;
    case FailpointRegistry::Spec::Mode::kFrom:
      return hit >= spec.n;
    case FailpointRegistry::Spec::Mode::kProbability:
      return rng.NextBool(spec.probability);
  }
  return false;
}

}  // namespace

Status FailpointRegistry::Evaluate(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end() ||
      it->second.spec.mode == Spec::Mode::kOff) {
    return Status::OK();
  }
  Entry& entry = it->second;
  const uint64_t hit = ++entry.counters.hits;
  if (!PolicyFires(entry.spec, hit, entry.rng)) return Status::OK();
  ++entry.counters.fires;
  return Status::Internal(
      StrFormat("failpoint '%s' fired (hit %llu)",
                std::string(name).c_str(),
                static_cast<unsigned long long>(hit)));
}

Status FailpointRegistry::EvaluateCorrupt(std::string_view name,
                                          std::string* buf) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end() ||
      it->second.spec.mode == Spec::Mode::kOff) {
    return Status::OK();
  }
  Entry& entry = it->second;
  const uint64_t hit = ++entry.counters.hits;
  if (!PolicyFires(entry.spec, hit, entry.rng)) return Status::OK();
  ++entry.counters.fires;
  if (entry.spec.payload == Spec::Payload::kError) {
    return Status::Internal(
        StrFormat("failpoint '%s' fired (hit %llu)",
                  std::string(name).c_str(),
                  static_cast<unsigned long long>(hit)));
  }
  if (buf != nullptr && !buf->empty()) {
    size_t off =
        static_cast<size_t>(entry.spec.corrupt_offset % buf->size());
    char& byte = (*buf)[off];
    byte = entry.spec.payload == Spec::Payload::kFlipByte
               ? static_cast<char>(byte ^ '\xFF')
               : '\0';
  }
  return Status::OK();  // silent corruption: the write proceeds
}

}  // namespace structura
