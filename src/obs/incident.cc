#include "obs/incident.h"

#include <filesystem>
#include <fstream>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/flight_recorder.h"

namespace structura::obs {
namespace {

/// Filesystem-safe slug of a trigger name ("health_critical: storage.disk"
/// → "health_critical_storage.disk"), bounded so a pathological trigger
/// cannot blow the path limit.
std::string Slug(const std::string& trigger) {
  std::string out;
  for (char c : trigger) {
    bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '.' || c == '-';
    out += safe ? c : '_';
    if (out.size() >= 48) break;
  }
  return out;
}

}  // namespace

IncidentManager::IncidentManager(Options options)
    : options_(std::move(options)),
      clock_(Clock::OrReal(options_.clock)) {}

void IncidentManager::AddSection(std::string filename, ContentFn fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  sections_.emplace_back(std::move(filename), std::move(fn));
}

std::string IncidentManager::MaybeDump(const std::string& trigger) {
  if (options_.dir.empty()) return "";
  std::unique_lock<std::mutex> lock(mutex_);
  int64_t now = clock_->NowNanos();
  if (last_dump_nanos_ >= 0 &&
      now - last_dump_nanos_ <
          static_cast<int64_t>(options_.cooldown_ms) * 1'000'000) {
    suppressed_->Increment();
    return "";
  }
  // Claim the cooldown window before the (slow, unlocked-sections) file
  // writes: a concurrent trigger arriving mid-dump is suppressed rather
  // than producing a second bundle.
  last_dump_nanos_ = now;
  uint64_t seq = seq_++;
  std::vector<std::pair<std::string, ContentFn>> sections = sections_;
  lock.unlock();

  std::string dir = options_.dir + "/incident_" + std::to_string(seq) +
                    "_" + Slug(trigger);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    STRUCTURA_LOG(kWarning)
        << "incident bundle: cannot create " << dir << ": " << ec.message();
    return "";
  }

  std::string manifest = StrFormat(
      "{\"incident\":%llu,\"trigger\":\"%s\",\"nanos\":%lld,\"sections\":[",
      static_cast<unsigned long long>(seq), JsonEscape(trigger).c_str(),
      static_cast<long long>(now));
  bool all_ok = true;
  for (size_t i = 0; i < sections.size(); ++i) {
    const auto& [filename, fn] = sections[i];
    std::ofstream out(dir + "/" + filename, std::ios::trunc);
    out << fn();
    out.close();
    if (!out) all_ok = false;
    if (i > 0) manifest += ',';
    manifest += "\"" + JsonEscape(filename) + "\"";
  }
  manifest += "]}";
  {
    std::ofstream out(dir + "/MANIFEST.json", std::ios::trunc);
    out << manifest << "\n";
    out.close();
    if (!out) all_ok = false;
  }
  if (!all_ok) {
    STRUCTURA_LOG(kWarning)
        << "incident bundle " << dir << ": some sections failed to write";
  }

  dumps_->Increment();
  RecordEvent(EventCategory::kIncident, EventCode::kIncidentDump, seq, 0, 0,
              InternName(Slug(trigger)));
  STRUCTURA_LOG(kWarning) << "incident bundle written: " << dir
                          << " (trigger: " << trigger << ")";
  return dir;
}

int64_t IncidentManager::last_dump_nanos() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_dump_nanos_;
}

}  // namespace structura::obs
