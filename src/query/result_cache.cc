#include "query/result_cache.h"

#include <utility>

#include "obs/trace.h"
#include "rdbms/value.h"

namespace structura::query {

namespace {

/// Rough retained-memory estimate for budget accounting: container
/// headers plus string payloads. Exactness doesn't matter — it only has
/// to scale with the real footprint.
size_t ApproxBytes(const Relation& r) {
  size_t b = sizeof(Relation);
  for (const std::string& c : r.columns()) b += sizeof(std::string) + c.size();
  for (const Row& row : r.rows()) {
    b += sizeof(Row);
    for (const Value& v : row) {
      b += sizeof(Value);
      if (v.type() == rdbms::ValueType::kString) b += v.as_string().size();
    }
  }
  return b;
}

}  // namespace

uint64_t EpochMap::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = epochs_.find(name);
  return it == epochs_.end() ? 0 : it->second;
}

void EpochMap::Bump(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++epochs_[name];
}

EpochVector EpochMap::Snapshot(
    const std::vector<std::string>& inputs) const {
  EpochVector out;
  out.reserve(inputs.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& name : inputs) {
    auto it = epochs_.find(name);
    out.emplace_back(name, it == epochs_.end() ? 0 : it->second);
  }
  return out;
}

QueryResultCache::QueryResultCache(Options opts) : options_(opts) {}

std::optional<Relation> QueryResultCache::Lookup(
    const std::string& fingerprint) {
  TRACE_SPAN("query.cache.lookup");
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = index_.find(fingerprint);
  if (it != index_.end()) {
    bool current = true;
    for (const auto& [name, epoch] : it->second->at) {
      if (epochs_.Get(name) != epoch) {
        current = false;
        break;
      }
    }
    if (current) {
      lru_.splice(lru_.begin(), lru_, it->second);
      hits_->Increment();
      Relation out = it->second->result;
      lock.unlock();
      TRACE_SPAN("query.cache.hit");
      return out;
    }
    // Some input moved on since this entry was computed: the entry is
    // garbage by construction, drop it now. This lazy erase is what
    // keeps Bump O(1).
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
    invalidations_->Increment();
    PublishSizeLocked();
  }
  misses_->Increment();
  lock.unlock();
  TRACE_SPAN("query.cache.miss");
  return std::nullopt;
}

Result<Relation> QueryResultCache::GetOrCompute(
    const std::string& fingerprint, const std::vector<std::string>& inputs,
    const std::function<Result<Relation>()>& compute) {
  EpochVector at = epochs_.Snapshot(inputs);
  if (std::optional<Relation> hit = Lookup(fingerprint)) {
    return std::move(*hit);
  }
  STRUCTURA_ASSIGN_OR_RETURN(Relation out, compute());
  Insert(fingerprint, std::move(at), out);
  return out;
}

void QueryResultCache::Insert(const std::string& fingerprint, EpochVector at,
                              Relation result) {
  TRACE_SPAN("query.cache.insert");
  size_t bytes = ApproxBytes(result);
  if (bytes > options_.max_bytes || options_.max_entries == 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    rejected_->Increment();
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(fingerprint);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(Entry{fingerprint, std::move(at), std::move(result), bytes});
  index_[fingerprint] = lru_.begin();
  bytes_ += bytes;
  EvictLocked();
  PublishSizeLocked();
}

void QueryResultCache::EvictLocked() {
  while (!lru_.empty() && (index_.size() > options_.max_entries ||
                           bytes_ > options_.max_bytes)) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.fingerprint);
    lru_.pop_back();
    evictions_->Increment();
  }
}

void QueryResultCache::PublishSizeLocked() {
  bytes_gauge_->Set(static_cast<int64_t>(bytes_));
  entries_gauge_->Set(static_cast<int64_t>(index_.size()));
}

void QueryResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  PublishSizeLocked();
}

QueryResultCache::Stats QueryResultCache::stats() const {
  // Counters move under mutex_ too, so the fields agree with each other.
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_->Value();
  s.misses = misses_->Value();
  s.evictions = evictions_->Value();
  s.invalidations = invalidations_->Value();
  s.rejected = rejected_->Value();
  s.entries = index_.size();
  s.bytes = bytes_;
  return s;
}

}  // namespace structura::query
