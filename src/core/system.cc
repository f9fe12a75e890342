#include "core/system.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <tuple>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/eval.h"
#include "core/schema_unify.h"
#include "ie/standard.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/hybrid.h"
#include "query/structured_query.h"
#include "serve/request_context.h"

namespace structura::core {

System::System(Options options)
    : options_(std::move(options)), users_(options_.seed) {
  metrics_.RegisterGaugeFn("ie.quarantined_extractors", [this] {
    return static_cast<int64_t>(
        ctx_.extractor_faults.Read().quarantined.size());
  });
}

System::~System() {
  StopWatchdog();
  // The commit listener captures the result cache; detach it before
  // members (cache included) are destroyed.
  if (db_ != nullptr) db_->SetCommitListener(nullptr);
  // The event journal is process-global but was stamping on this
  // system's clock; drop back to real time so a test-scoped
  // SimulatedClock cannot dangle there.
  if (options_.clock != nullptr) {
    obs::EventJournal::Instance().SetClock(nullptr);
  }
}

Result<std::unique_ptr<System>> System::Create(Options options) {
  std::unique_ptr<System> sys(new System(std::move(options)));
  rdbms::DatabaseOptions db_options;
  db_options.wal.env = sys->options_.env;
  db_options.wal.clock = sys->options_.clock;
  if (!sys->options_.workspace.empty()) {
    db_options.dir = sys->options_.workspace + "/db";
  }
  STRUCTURA_ASSIGN_OR_RETURN(sys->db_, rdbms::Database::Open(db_options));
  if (!sys->options_.workspace.empty()) {
    // Snapshots get a durable journal too: every acknowledged crawl
    // version survives a restart.
    STRUCTURA_RETURN_IF_ERROR(sys->snapshots_.AttachJournal(
        sys->options_.workspace + "/snapshots", sys->options_.env));
  }
  sys->PublishIntegrity("recovery", sys->RecoveryReport());
  // Morsel-parallel query execution: one shared pool, threaded through
  // the execution context to every operator. parallelism <= 1 keeps
  // the serial path (no pool at all).
  sys->ctx_.exec.morsel_rows = sys->options_.query_morsel_rows;
  if (sys->options_.query_parallelism > 1) {
    sys->query_pool_ =
        std::make_unique<ThreadPool>(sys->options_.query_parallelism);
    sys->ctx_.exec.parallelism = sys->options_.query_parallelism;
    sys->ctx_.exec.pool = sys->query_pool_.get();
  }
  // Epoch-versioned result cache. The database's commit listener bumps
  // "table:<name>" at each durable commit; IngestCrawl bumps "docs";
  // the interpreter bumps "view:<name>" — so a stale hit is
  // structurally impossible: any committed write moves the epoch the
  // cached entry was snapshotted against.
  if (sys->options_.query_cache_entries > 0 &&
      sys->options_.query_cache_bytes > 0) {
    query::QueryResultCache::Options cache_options;
    cache_options.max_entries = sys->options_.query_cache_entries;
    cache_options.max_bytes = sys->options_.query_cache_bytes;
    sys->query_cache_ =
        std::make_unique<query::QueryResultCache>(cache_options);
    sys->ctx_.cache = sys->query_cache_.get();
    System* self = sys.get();
    // Degraded-mode policy: a browned-out or critical system serves
    // queries fresh (still correct, never stale) rather than risking a
    // cache warmed before the trouble; per-request no-cache rides the
    // serve layer's thread-local bypass.
    sys->ctx_.cache_gate = [self] {
      return !self->ReadOnly() &&
             self->health_.Overall() != serve::HealthState::kCritical &&
             !serve::CacheBypassed();
    };
    sys->db_->SetCommitListener(
        [self](const std::vector<std::string>& tables) {
          for (const std::string& t : tables) {
            self->query_cache_->epochs().Bump("table:" + t);
          }
        });
  }
  sys->RegisterBuiltinHealthSignals();
  // The flight recorder's event journal stamps on this system's clock
  // (process-global and observational; tests with a SimulatedClock get
  // deterministic stamps).
  obs::EventJournal::Instance().SetClock(sys->options_.clock);
  std::string incident_dir = sys->options_.incident_dir;
  if (incident_dir.empty()) {
    const char* env_dir = std::getenv("STRUCTURA_ARTIFACT_DIR");
    if (env_dir != nullptr) incident_dir = env_dir;
  }
  if (!incident_dir.empty()) {
    obs::IncidentManager::Options io;
    io.dir = incident_dir;
    io.cooldown_ms = sys->options_.incident_cooldown_ms;
    io.clock = sys->options_.clock;
    sys->incidents_ = std::make_unique<obs::IncidentManager>(io);
    // Sections render at dump time, so every bundle is a snapshot of
    // the instant its trigger fired.
    System* raw = sys.get();
    sys->incidents_->AddSection("metrics.prom",
                                [] { return MetricsPrometheus(); });
    sys->incidents_->AddSection("metrics.json", [] { return MetricsJson(); });
    sys->incidents_->AddSection("health.json",
                                [raw] { return raw->HealthJson(); });
    sys->incidents_->AddSection("status.txt",
                                [raw] { return raw->StatusReport(); });
    sys->incidents_->AddSection("events.json", [] {
      return obs::EventJournal::Instance().TailJson(512);
    });
    sys->incidents_->AddSection("expensive.json",
                                [] { return ExpensiveRequestsJson(); });
    sys->incidents_->AddSection("slow.json", [] {
      std::string out = "[";
      bool first = true;
      for (const obs::SlowRequestLog::Entry& e :
           obs::SlowRequestLog::Instance().Recent()) {
        if (!first) out += ',';
        first = false;
        out += "{\"trace_id\":" + std::to_string(e.trace_id) +
               ",\"duration_ns\":" + std::to_string(e.duration_ns) +
               ",\"root\":\"" + obs::JsonEscape(e.root_name) +
               "\",\"tree\":\"" + obs::JsonEscape(e.tree) + "\"}";
      }
      return out + "]";
    });
  }
  return sys;
}

void System::RegisterBuiltinHealthSignals() {
  // One integrity signal per durable store, under one rule: a store is
  // judged by its latest scrub once one ran (a clean scrub is what
  // heals the subsystem), else by what recovery found at open.
  auto store_signal = [this](const char* name,
                             const IntegrityCounters* last_scrub,
                             const IntegrityCounters* recovered) {
    health_.Register(name, "integrity", [this, last_scrub, recovered] {
      IntegrityCounters found = *recovered;
      const char* pass = "recovery: ";
      {
        std::lock_guard<std::mutex> lock(scrub_mutex_);
        if (scrubbed_) {
          found = *last_scrub;
          pass = "scrub: ";
        }
      }
      if (!found.AnyDamage()) return serve::HealthSample{};
      return serve::HealthSample{serve::HealthState::kDegraded,
                                 pass + found.ToString()};
    });
  };
  store_signal("storage.wal", &last_scrub_db_, &db_->recovery_report());
  store_signal("storage.snapshots", &last_scrub_snapshots_,
               &snapshots_.recovery_report());
  // storage.disk: the I/O environment itself. Cheap while quiet (two
  // relaxed loads); when the env's failure ledger advances or a sink
  // is latched failed, it probes the workspace with a real
  // write+fsync. Unwritable disk or a sink pending heal → critical;
  // the serve layer keys read-only brownout off this signal. The last
  // ledger value seen lives behind a shared_ptr: Evaluate() invokes a
  // copy of each SignalFn, so state held in the lambda itself would
  // advance on the copy and be lost.
  Env* e = env();
  health_.Register(
      "storage.disk", "io",
      [this, e,
       seen = std::make_shared<std::atomic<uint64_t>>(e->io_failures())] {
        if (options_.workspace.empty()) return serve::HealthSample{};
        uint64_t now = e->io_failures();
        bool sink_failed = ReadOnly();
        if (now == seen->load() && !sink_failed) {
          return serve::HealthSample{};
        }
        Status probe = e->ProbeWrite(options_.workspace);
        if (!probe.ok()) {
          // The probe itself advances the ledger, so the next
          // evaluation re-probes instead of trusting a stale verdict.
          return serve::HealthSample{serve::HealthState::kCritical,
                                     "disk unwritable: " + probe.message()};
        }
        seen->store(now);
        if (sink_failed) {
          return serve::HealthSample{
              serve::HealthState::kCritical,
              "write path failed (pending heal): " + ReadOnlyReason()};
        }
        return serve::HealthSample{serve::HealthState::kDegraded,
                                   "i/o failure(s) observed; probe ok: " +
                                       e->last_io_error()};
      });
  // ie: this System's own quarantine ledger, read under its lock (the
  // executor writes it concurrently). Per-request context copies keep
  // ledgers of their own and never vote here. The process-wide fault
  // counter the executor bumps is registered now so it is exposed (at
  // zero) before the first fault.
  obs::MetricsRegistry::Default().GetCounter("ie.extract.faults");
  health_.Register("ie", "faults", [this] {
    size_t quarantined = ctx_.extractor_faults.Read().quarantined.size();
    size_t total = extractor_count_.load();
    if (total > 0 && quarantined >= total) {
      return serve::HealthSample{serve::HealthState::kCritical,
                                 "all extractors quarantined"};
    }
    if (quarantined > 0) {
      return serve::HealthSample{
          serve::HealthState::kDegraded,
          std::to_string(quarantined) + " extractor(s) quarantined"};
    }
    return serve::HealthSample{};
  });
}

IntegrityCounters System::RecoveryReport() const {
  IntegrityCounters recovered = db_->recovery_report();
  recovered.Merge(snapshots_.recovery_report());
  return recovered;
}

void System::PublishIntegrity(const std::string& pass,
                              const IntegrityCounters& counters) {
  for (const IntegrityField& f : kIntegrityFields) {
    metrics_.GetGauge("integrity." + pass + "." + f.name)
        ->Set(static_cast<int64_t>(counters.*f.value));
  }
}

bool System::ReadOnly() const {
  return db_->WalFailed() || snapshots_.Failed();
}

std::string System::ReadOnlyReason() const {
  std::string reason;
  auto add = [&](const std::string& part) {
    if (!reason.empty()) reason += "; ";
    reason += part;
  };
  if (db_->WalFailed()) {
    add("wal: " + db_->WalFailedStatus().message());
  }
  if (snapshots_.Failed()) add("snapshot journal failed");
  return reason;
}

Status System::HealStorage() {
  if (options_.workspace.empty()) return Status::OK();
  Status result = [&]() -> Status {
    // Gate on a real probe: handing fresh handles to a still-dead disk
    // would just re-latch them (and burn the WAL's checkpoint work).
    STRUCTURA_RETURN_IF_ERROR(env()->ProbeWrite(options_.workspace));
    if (db_->WalFailed()) {
      // Checkpoint is the WAL's recovery point: it durably captures the
      // in-memory state, then Reset() opens a fresh handle — so the new
      // WAL never diverges from what memory already holds.
      STRUCTURA_RETURN_IF_ERROR(db_->Checkpoint());
    }
    if (snapshots_.Failed() || JournalDamaged()) {
      STRUCTURA_RETURN_IF_ERROR(snapshots_.ReopenJournal());
      std::lock_guard<std::mutex> lock(scrub_mutex_);
      journal_damaged_ = false;
    }
    return Status::OK();
  }();
  last_heal_nanos_.store(clock()->NowNanos());
  obs::RecordEvent(obs::EventCategory::kWatchdog,
                   obs::EventCode::kWatchdogHeal, result.ok() ? 0 : 1, 0, 0,
                   "heal storage");
  return result;
}

bool System::JournalDamaged() const {
  std::lock_guard<std::mutex> lock(scrub_mutex_);
  return journal_damaged_;
}

void System::StartWatchdog(WatchdogOptions options) {
  StopWatchdog();
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_options_ = options;
    watchdog_stop_ = false;
  }
  watchdog_running_.store(true);
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

void System::StopWatchdog() {
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  watchdog_running_.store(false);
}

void System::MaybeIncident(const char* trigger) {
  if (incidents_ == nullptr || !watchdog_options_.auto_incident) return;
  (void)incidents_->MaybeDump(trigger);
}

void System::WatchdogLoop() {
  Clock* clk = clock();
  int64_t last_auto_scrub = -1;  // -1: first scrub is immediate
  int64_t last_auto_heal = -1;
  // Flight-recorder trigger state: edge detection over read-only /
  // overall health, counter-delta detection over breaker opens and
  // slow requests. The registry counters are process-global, so the
  // baselines start at their current values.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter* breaker_opens =
      reg.GetCounter("serve.breaker.open_transitions");
  obs::Counter* slow_requests = reg.GetCounter("obs.trace.slow_requests");
  uint64_t seen_opens = breaker_opens->Value();
  uint64_t seen_slow = slow_requests->Value();
  uint64_t flap_accum = 0;
  bool prev_read_only = false;
  serve::HealthState prev_overall = serve::HealthState::kHealthy;
  while (true) {
    health_.Evaluate();
    watchdog_ticks_.fetch_add(1);
    // --- flight-recorder triggers (before auto-heal, so a latch the
    // heal below repairs within this same tick is still recorded) ---
    bool read_only = ReadOnly();
    if (read_only != prev_read_only) {
      prev_read_only = read_only;
      obs::RecordEvent(obs::EventCategory::kReadOnly,
                       read_only ? obs::EventCode::kReadOnlyEnter
                                 : obs::EventCode::kReadOnlyExit,
                       0, 0, 0, "watchdog");
      if (read_only) MaybeIncident("read_only_entered");
    }
    serve::HealthState overall = health_.Overall();
    if (overall == serve::HealthState::kCritical &&
        prev_overall != serve::HealthState::kCritical) {
      MaybeIncident("health_critical");
    }
    prev_overall = overall;
    uint64_t opens_now = breaker_opens->Value();
    uint64_t opens_delta = opens_now - seen_opens;
    seen_opens = opens_now;
    if (opens_delta > 0) {
      flap_accum += opens_delta;
      if (flap_accum >= watchdog_options_.breaker_flap_threshold) {
        MaybeIncident("breaker_flap");
        flap_accum = 0;
      }
    } else {
      // A quiet tick resets the accumulator: a flap is repeated opens
      // in quick succession, not N opens spread over a lifetime.
      flap_accum = 0;
    }
    uint64_t slow_now = slow_requests->Value();
    if (slow_now != seen_slow) {
      seen_slow = slow_now;
      MaybeIncident("slow_request");
    }
    if (watchdog_options_.auto_heal &&
        (health_.StateOf("storage.disk") != serve::HealthState::kHealthy ||
         JournalDamaged())) {
      int64_t now = clk->NowNanos();
      if (last_auto_heal < 0 ||
          now - last_auto_heal >=
              static_cast<int64_t>(watchdog_options_.heal_cooldown_ms) *
                  1'000'000) {
        last_auto_heal = now;
        watchdog_heals_.fetch_add(1);
        // A failed heal (disk still dead) is fine: the signal stays
        // critical and the next cooldown window retries the probe.
        Status healed = HealStorage();
        if (!healed.ok()) {
          STRUCTURA_LOG(kWarning)
              << "watchdog heal attempt failed: " << healed.ToString();
        }
        // Fold the post-heal verdict in right away so the brownout
        // lifts in one cooldown rather than cooldown + promote_after.
        health_.Evaluate();
        watchdog_ticks_.fetch_add(1);
      }
    }
    if (watchdog_options_.auto_scrub) {
      bool storage_trouble =
          health_.StateOf("storage.wal") != serve::HealthState::kHealthy ||
          health_.StateOf("storage.snapshots") != serve::HealthState::kHealthy;
      int64_t now = clk->NowNanos();
      bool cooled =
          last_auto_scrub < 0 ||
          now - last_auto_scrub >=
              static_cast<int64_t>(watchdog_options_.scrub_cooldown_ms) *
                  1'000'000;
      if (storage_trouble && cooled) {
        last_auto_scrub = now;
        watchdog_scrubs_.fetch_add(1);
        // A failed scrub (e.g. an injected fault) is itself evidence;
        // the signals see it on the next evaluation either way.
        (void)ScrubStorage();
        // Fold the fresh scrub verdict in right away, so healing costs
        // one cooldown rather than cooldown + promote_after intervals.
        health_.Evaluate();
        watchdog_ticks_.fetch_add(1);
      }
    }
    std::unique_lock<std::mutex> lock(watchdog_mutex_);
    if (clk->WaitForPred(
            watchdog_cv_, lock,
            static_cast<int64_t>(watchdog_options_.interval_ms) * 1'000'000,
            [this] { return watchdog_stop_; })) {
      return;
    }
  }
}

std::string System::HealthJson() const {
  uint64_t interval_ms;
  {
    // Snapshot under the lock: StartWatchdog() may be reassigning
    // watchdog_options_ concurrently on a restart.
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    interval_ms = watchdog_options_.interval_ms;
  }
  std::string out = "{\"health\":";
  out += health_.ToJson();
  out += ",\"watchdog\":{\"running\":";
  out += watchdog_running_.load() ? "true" : "false";
  out += ",\"interval_ms\":" + std::to_string(interval_ms);
  out += ",\"ticks\":" + std::to_string(watchdog_ticks_.load());
  out += ",\"auto_scrubs\":" + std::to_string(watchdog_scrubs_.load());
  out += ",\"auto_heals\":" + std::to_string(watchdog_heals_.load());
  out += "}}";
  return out;
}

Status System::IngestCrawl(const text::DocumentCollection& docs) {
  // Change detection: a page is dirty when its text differs from the
  // previous crawl (or is new). REFRESH VIEW re-extracts only these. The
  // dirty set and the new hashes take effect only once the whole crawl
  // is stored, so a refused crawl still looks changed to its retry.
  std::vector<std::pair<text::DocId, uint64_t>> changed;
  for (const text::Document& doc : docs.docs) {
    uint64_t h = Fnv1a64(doc.text);
    auto it = last_text_hash_.find(doc.id);
    if (it == last_text_hash_.end() || it->second != h) {
      changed.emplace_back(doc.id, h);
    }
    STRUCTURA_RETURN_IF_ERROR(
        snapshots_.Append(doc.id, doc.text).status());
  }
  // Durability point for the whole crawl: one fsync covers every
  // journaled append above.
  STRUCTURA_RETURN_IF_ERROR(snapshots_.Sync());
  ctx_.dirty_docs.clear();
  for (const auto& [id, h] : changed) {
    ctx_.dirty_docs.insert(id);
    last_text_hash_[id] = h;
  }
  docs_ = docs;
  keyword_index_ = query::KeywordIndex();
  for (const text::Document& doc : docs_.docs) {
    keyword_index_.AddDocument(doc);
  }
  keyword_index_.Finalize();
  // A new crawl is a new "docs" epoch: every cached result that read
  // documents (directly or via a view) is invalidated at next lookup.
  if (query_cache_ != nullptr) query_cache_->epochs().Bump("docs");
  ctx_.docs = &docs_;
  ctx_.db = db_.get();
  monitor_.RecordDocsProcessed(docs.size());
  return Status::OK();
}

void System::RegisterExtractor(std::string name,
                               ie::ExtractorPtr extractor,
                               std::string attribute_pattern) {
  ctx_.extractors[name] = extractor.get();
  ctx_.extractor_attributes[std::move(name)] =
      std::move(attribute_pattern);
  owned_extractors_.push_back(std::move(extractor));
  // Registered-extractor census for the "ie" health signal (atomic:
  // the watchdog reads it concurrently).
  extractor_count_.store(ctx_.extractors.size());
}

void System::RegisterStandardOperators() {
  RegisterExtractor("infobox", ie::MakeInfoboxExtractor(), "%");
  RegisterExtractor("temp_sentence", ie::MakeTemperatureExtractor(),
                    "temp_%");
  RegisterExtractor("population_sentence", ie::MakePopulationExtractor(),
                    "population");
  RegisterExtractor("founded_sentence", ie::MakeFoundedExtractor(),
                    "founded");
  RegisterExtractor("elevation_sentence", ie::MakeElevationExtractor(),
                    "elevation");
  RegisterExtractor("mayor_sentence", ie::MakeMayorExtractor(), "mayor");
  RegisterExtractor("residence_sentence", ie::MakeResidenceExtractor(),
                    "residence");
  owned_matchers_.push_back(std::make_unique<ii::NameMatcher>());
  ctx_.matchers["name"] = owned_matchers_.back().get();
  owned_matchers_.push_back(std::make_unique<ii::JaroWinklerMatcher>());
  ctx_.matchers["jaro_winkler"] = owned_matchers_.back().get();
  owned_matchers_.push_back(std::make_unique<ii::LevenshteinMatcher>());
  ctx_.matchers["levenshtein"] = owned_matchers_.back().get();
}

Result<std::vector<lang::Interpreter::StatementResult>> System::RunProgram(
    const std::string& sdl) {
  lang::Interpreter::Options opts;
  opts.optimize = options_.optimize_plans;
  lang::Interpreter interp(&ctx_, opts);
  return interp.Run(sdl);
}

Result<query::Relation> System::Query(const std::string& sdl) {
  lang::Interpreter::Options opts;
  opts.optimize = options_.optimize_plans;
  lang::Interpreter interp(&ctx_, opts);
  return interp.Query(sdl);
}

const query::Relation* System::View(const std::string& name) const {
  auto it = ctx_.views.find(name);
  return it == ctx_.views.end() ? nullptr : &it->second;
}

Status System::BuildBeliefsFromView(const std::string& view) {
  const query::Relation* rel = View(view);
  if (rel == nullptr) return Status::NotFound("no view " + view);
  int subject_col = rel->ColumnIndex("entity");
  if (subject_col < 0) subject_col = rel->ColumnIndex("subject");
  int attr_col = rel->ColumnIndex("attribute");
  int value_col = rel->ColumnIndex("value");
  int conf_col = rel->ColumnIndex("confidence");
  int doc_col = rel->ColumnIndex("doc");
  int extractor_col = rel->ColumnIndex("extractor");
  if (subject_col < 0 || attr_col < 0 || value_col < 0) {
    return Status::InvalidArgument(
        "view lacks subject/attribute/value columns");
  }

  current_facts_ = ie::FactSet();
  std::map<uint64_t, provenance::NodeId> doc_nodes;
  // Fact ids are dense from 1 in the fresh FactSet: node of fact `id` is
  // fact_nodes[id - 1].
  std::vector<provenance::NodeId> fact_nodes;
  fact_nodes.reserve(rel->size());
  for (const query::Row& row : rel->rows()) {
    ie::ExtractedFact fact;
    fact.subject = row[static_cast<size_t>(subject_col)].ToString();
    fact.attribute = row[static_cast<size_t>(attr_col)].ToString();
    fact.value = row[static_cast<size_t>(value_col)].ToString();
    fact.confidence =
        conf_col < 0 ? 1.0
                     : [&] {
                         double c = 1.0;
                         row[static_cast<size_t>(conf_col)].ToNumber(&c);
                         return c;
                       }();
    if (doc_col >= 0 && row[static_cast<size_t>(doc_col)].type() ==
                            rdbms::ValueType::kInt) {
      fact.doc = static_cast<text::DocId>(
          row[static_cast<size_t>(doc_col)].as_int());
    }
    if (extractor_col >= 0) {
      fact.extractor =
          row[static_cast<size_t>(extractor_col)].ToString();
    }
    uint64_t id = current_facts_.Add(std::move(fact));
    const ie::ExtractedFact& added = current_facts_.facts.back();
    // Provenance: doc -> fact.
    provenance::NodeId doc_node = 0;
    auto dn = doc_nodes.find(added.doc);
    if (dn == doc_nodes.end()) {
      doc_node = lineage_.AddNode(
          provenance::NodeKind::kDocument,
          StrFormat("doc#%llu",
                    static_cast<unsigned long long>(added.doc)));
      doc_nodes[added.doc] = doc_node;
    } else {
      doc_node = dn->second;
    }
    provenance::NodeId fact_node = lineage_.AddNode(
        provenance::NodeKind::kFact,
        StrFormat("fact#%llu %s.%s=%s (%s)",
                  static_cast<unsigned long long>(id),
                  added.subject.c_str(), added.attribute.c_str(),
                  added.value.c_str(), added.extractor.c_str()));
    lineage_.AddEdge(fact_node, doc_node, "extracted-from");
    fact_nodes.push_back(fact_node);
  }

  beliefs_ = uncertainty::BuildBeliefs(current_facts_);
  for (const uncertainty::AttributeBelief& b : beliefs_) {
    provenance::NodeId belief_node = lineage_.AddNode(
        provenance::NodeKind::kBelief,
        StrFormat("belief %s.%s", b.subject.c_str(), b.attribute.c_str()));
    lineage_.Bind("belief:" + b.subject + ":" + b.attribute, belief_node);
    for (const uncertainty::ValueAlternative& alt : b.alternatives) {
      for (uint64_t fid : alt.supporting_facts) {
        lineage_.AddEdge(belief_node, fact_nodes[fid - 1], "aggregates");
      }
    }
  }
  fact_view_ = view;
  query::KeywordTranslator::Options topt;
  topt.fact_view = view;
  translator_ = query::KeywordTranslator(topt);
  translator_.BuildVocabulary(*rel);
  monitor_.RecordFactsExtracted(current_facts_.size());
  return Status::OK();
}

Result<std::string> System::Explain(const std::string& subject,
                                    const std::string& attribute) const {
  // Lineage bindings outlive rebuilds, so ask the current beliefs
  // (ordered by subject, attribute) whether the key is still held.
  auto it = std::lower_bound(
      beliefs_.begin(), beliefs_.end(), std::tie(subject, attribute),
      [](const uncertainty::AttributeBelief& b, const auto& key) {
        return std::tie(b.subject, b.attribute) < key;
      });
  if (it == beliefs_.end() || it->subject != subject ||
      it->attribute != attribute) {
    return Status::NotFound("no belief for " + subject + "." + attribute);
  }
  STRUCTURA_ASSIGN_OR_RETURN(
      provenance::NodeId node,
      lineage_.Lookup("belief:" + subject + ":" + attribute));
  return lineage_.Explain(node);
}

std::vector<debugger::Violation> System::AuditFacts() {
  debugger_.LearnFromFacts(current_facts_);
  std::vector<debugger::Violation> violations =
      debugger_.Check(current_facts_);
  monitor_.RecordViolations(violations.size());
  return violations;
}

Result<std::map<std::string, std::string>> System::UnifyViewSchema(
    const std::string& view,
    const std::vector<std::string>& canonical_attributes,
    const ii::SchemaMatchOptions& options) {
  auto it = ctx_.views.find(view);
  if (it == ctx_.views.end()) return Status::NotFound("no view " + view);
  STRUCTURA_ASSIGN_OR_RETURN(
      UnifyResult unified,
      UnifySchema(it->second, canonical_attributes, options));
  it->second = std::move(unified.unified);
  // The view was rewritten outside the interpreter: bump its epoch so
  // cached results over it are invalidated.
  if (query_cache_ != nullptr) query_cache_->epochs().Bump("view:" + view);
  return unified.renames;
}

Status System::Watch(query::StandingQueryRegistry::Spec spec) {
  return watches_.Add(std::move(spec));
}

Result<std::vector<query::Alert>> System::CheckWatches(
    const std::string& view) {
  const query::Relation* rel = View(view);
  if (rel == nullptr) return Status::NotFound("no view " + view);
  return watches_.Evaluate(view, *rel);
}

std::string System::StatusReport() const {
  std::string out = "== system status ==\n";
  out += StrFormat("documents: %zu (snapshot store: %zu pages, %.2f MB "
                   "stored vs %.2f MB full)\n",
                   docs_.size(), snapshots_.NumPages(),
                   static_cast<double>(snapshots_.StoredBytes()) / 1e6,
                   static_cast<double>(snapshots_.FullCopyBytes()) / 1e6);
  out += StrFormat("views: %zu (", ctx_.views.size());
  bool first = true;
  for (const auto& [name, rel] : ctx_.views) {
    if (!first) out += ", ";
    first = false;
    out += StrFormat("%s: %zu rows", name.c_str(), rel.size());
  }
  out += ")\n";
  out += StrFormat("beliefs: %zu over view \"%s\"; lineage: %zu nodes, "
                   "%zu edges\n",
                   beliefs_.size(), fact_view_.c_str(),
                   lineage_.NumNodes(), lineage_.NumEdges());
  out += StrFormat("users: %zu; standing queries: %zu\n",
                   users_.NumUsers(), watches_.size());
  out += "monitor: " + monitor_.Report() + "\n";
  lang::ExtractorFaultLedger::Contents ledger = ctx_.extractor_faults.Read();
  if (!ledger.faults.empty()) {
    out += "degraded operators:";
    for (const auto& [name, faults] : ledger.faults) {
      out += StrFormat(" %s(faults=%zu%s)", name.c_str(), faults,
                       ledger.quarantined.count(name) > 0 ? ", quarantined"
                                                          : "");
    }
    out += '\n';
  }
  if (serving_stats_) {
    out += "serving: " + serving_stats_().ToString() + "\n";
  }
  if (query_cache_ != nullptr) {
    query::QueryResultCache::Stats cs = query_cache_->stats();
    out += StrFormat(
        "query cache: %zu entries, %zu bytes; hits=%llu misses=%llu "
        "evictions=%llu invalidations=%llu rejected=%llu",
        cs.entries, cs.bytes, static_cast<unsigned long long>(cs.hits),
        static_cast<unsigned long long>(cs.misses),
        static_cast<unsigned long long>(cs.evictions),
        static_cast<unsigned long long>(cs.invalidations),
        static_cast<unsigned long long>(cs.rejected));
    if (ReadOnly()) {
      out += " (bypassed: read-only brownout)";
    } else if (health_.Overall() == serve::HealthState::kCritical) {
      out += " (bypassed: health critical)";
    }
    out += '\n';
  }
  if (query_pool_ != nullptr) {
    out += StrFormat("query execution: morsel-parallel, %zu workers, "
                     "%zu-row morsels\n",
                     options_.query_parallelism, options_.query_morsel_rows);
  }
  if (ReadOnly()) {
    out += "mode: READ-ONLY (" + ReadOnlyReason() + ")\n";
  }
  if (health_.evaluations() > 0) {
    out += StrFormat("health: overall %s (watchdog %s, %llu ticks, %llu "
                     "auto-scrubs, %llu auto-heals)",
                     serve::HealthStateName(health_.Overall()),
                     WatchdogRunning() ? "running" : "stopped",
                     static_cast<unsigned long long>(WatchdogTicks()),
                     static_cast<unsigned long long>(WatchdogAutoScrubs()),
                     static_cast<unsigned long long>(WatchdogAutoHeals()));
    for (const serve::HealthModel::SourceStatus& s : health_.Snapshot()) {
      if (s.state == serve::HealthState::kHealthy) continue;
      out += StrFormat("; %s %s (%s)", s.subsystem.c_str(),
                       serve::HealthStateName(s.state), s.reason.c_str());
    }
    out += '\n';
  }
  {
    // Forensics ages, on the system clock: how stale is the evidence?
    int64_t now = clock()->NowNanos();
    auto age = [now](int64_t at) {
      return at < 0 ? std::string("never")
                    : StrFormat("%.1fs ago",
                                static_cast<double>(now - at) / 1e9);
    };
    int64_t incident_at =
        incidents_ != nullptr ? incidents_->last_dump_nanos() : -1;
    out += StrFormat("forensics: last scrub %s, last heal %s, "
                     "last incident %s",
                     age(last_scrub_nanos_.load()).c_str(),
                     age(last_heal_nanos_.load()).c_str(),
                     age(incident_at).c_str());
    if (incidents_ != nullptr) {
      out += StrFormat(
          " (bundles=%llu suppressed=%llu dir=%s)",
          static_cast<unsigned long long>(incidents_->dumps()),
          static_cast<unsigned long long>(incidents_->suppressed()),
          incidents_->dir().c_str());
    }
    out += StrFormat("; events recorded: %llu",
                     static_cast<unsigned long long>(
                         obs::EventJournal::Instance().recorded()));
    out += '\n';
  }
  IntegrityCounters recovered = RecoveryReport();
  IntegrityCounters scrub_snapshot;
  bool scrubbed;
  {
    std::lock_guard<std::mutex> lock(scrub_mutex_);
    scrubbed = scrubbed_;
    scrub_snapshot = last_scrub_;
  }
  if (recovered.AnyDamage() || scrubbed) {
    out += "integrity: recovery " + recovered.ToString();
    if (scrubbed) out += "; last scrub " + scrub_snapshot.ToString();
    out += '\n';
  }
  std::vector<std::pair<std::string, FailpointRegistry::Counters>> fps =
      FailpointRegistry::Instance().Snapshot();
  if (!fps.empty()) {
    out += "failpoints:";
    for (const auto& [name, counters] : fps) {
      out += StrFormat(
          " %s(hits=%llu, fires=%llu)", name.c_str(),
          static_cast<unsigned long long>(counters.hits),
          static_cast<unsigned long long>(counters.fires));
    }
    out += '\n';
  }
  // Process metrics registry: the same snapshot type MetricsPrometheus /
  // MetricsJson render, compacted for operators.
  std::string metrics =
      obs::RenderCompact(obs::MetricsRegistry::Default().Snapshot());
  if (!metrics.empty()) out += metrics;
  return out;
}

std::string System::MetricsPrometheus() {
  return obs::RenderPrometheus(obs::MetricsRegistry::Default().Snapshot());
}

std::string System::MetricsJson() {
  return obs::RenderJson(obs::MetricsRegistry::Default().Snapshot());
}

std::string System::ExpensiveRequestsJson() {
  return obs::ExpensiveRequestTracker::Instance().ToJson();
}

Result<size_t> System::RunFeedbackRound(
    const Oracle& oracle, std::vector<hi::SimulatedUser>* crowd,
    const FeedbackOptions& options) {
  if (crowd == nullptr || crowd->empty()) {
    return Status::InvalidArgument("empty crowd");
  }
  // Ensure crowd members have accounts.
  for (const hi::SimulatedUser& u : *crowd) {
    if (!users_.GetUser(u.name()).ok()) {
      STRUCTURA_RETURN_IF_ERROR(
          users_.Register(u.name(), "pw", user::Role::kOrdinary));
    }
  }

  // Rank beliefs by uncertainty of their top alternative.
  std::vector<size_t> order(beliefs_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto top_prob = [&](size_t i) {
    const uncertainty::ValueAlternative* top = beliefs_[i].Top();
    return top == nullptr ? 0.0 : top->probability;
  };
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    double ua = std::abs(top_prob(a) - 0.5);
    double ub = std::abs(top_prob(b) - 0.5);
    if (ua != ub) return ua < ub;
    return a < b;
  });

  // One pass in rank order: each belief the oracle can answer becomes a
  // choose-one task with its crowd answers, until `budget` are asked.
  // Users can both *verify* the extracted candidates and *supply* the
  // right value (the paper's users "provide domain knowledge"), modeled
  // as a write-in option equal to the oracle's truth.
  struct Question {
    size_t belief;
    hi::Task task;
    std::vector<hi::Answer> answers;
  };
  std::vector<Question> questions;
  size_t next_user = 0;
  for (size_t i : order) {
    if (questions.size() >= options.budget) break;
    const uncertainty::AttributeBelief& b = beliefs_[i];
    std::optional<std::string> truth = oracle(b.subject, b.attribute);
    if (!truth.has_value()) continue;
    std::vector<std::string> candidates;
    for (const uncertainty::ValueAlternative& alt : b.alternatives) {
      candidates.push_back(alt.value);
    }
    Question q{i,
               hi::MakeChooseValueTask(next_task_id_++, b.subject,
                                       b.attribute, std::move(candidates),
                                       top_prob(i), i),
               {}};
    if (std::find(q.task.options.begin(), q.task.options.end(), *truth) ==
        q.task.options.end()) {
      q.task.options.push_back(*truth);
    }
    for (size_t a = 0; a < options.answers_per_task; ++a) {
      hi::SimulatedUser& u = (*crowd)[next_user % crowd->size()];
      ++next_user;
      q.answers.push_back(u.Respond(q.task, *truth));
    }
    questions.push_back(std::move(q));
  }
  monitor_.RecordTasksAnswered(questions.size() * options.answers_per_task);

  // Aggregate and apply, in rank order. A question without answers
  // changes nothing.
  hi::DawidSkeneResult ds;
  std::map<std::string, double> weights;
  if (options.aggregation == Aggregation::kDawidSkene) {
    std::vector<hi::Answer> all_answers;
    std::map<uint64_t, std::vector<std::string>> task_options;
    for (const Question& q : questions) {
      all_answers.insert(all_answers.end(), q.answers.begin(),
                         q.answers.end());
      task_options[q.task.id] = q.task.options;
    }
    ds = hi::DawidSkene(all_answers, task_options);
  } else if (options.aggregation == Aggregation::kWeighted) {
    weights = users_.ReputationWeights();
  }
  for (const Question& q : questions) {
    if (q.answers.empty()) continue;
    hi::AggregatedAnswer agg =
        options.aggregation == Aggregation::kDawidSkene
            ? ds.task_answers.at(q.task.id)
        : options.aggregation == Aggregation::kWeighted
            ? hi::WeightedVote(q.answers, weights)
            : hi::MajorityVote(q.answers);
    uncertainty::AttributeBelief& belief = beliefs_[q.belief];
    uncertainty::ConfirmValue(&belief, agg.choice,
                              std::min(0.99, std::max(0.55, agg.confidence)));
    // Provenance: feedback node supporting the belief.
    provenance::NodeId fb = lineage_.AddNode(
        provenance::NodeKind::kUserFeedback,
        StrFormat("consensus \"%s\" (%.2f) on task#%llu",
                  agg.choice.c_str(), agg.confidence,
                  static_cast<unsigned long long>(q.task.id)));
    Result<provenance::NodeId> belief_node = lineage_.Lookup(
        "belief:" + belief.subject + ":" + belief.attribute);
    if (belief_node.ok()) {
      lineage_.AddEdge(*belief_node, fb, "adjusted-by");
    }
    // Reputation updates: agreement with consensus.
    for (const hi::Answer& a : q.answers) {
      users_.RecordFeedback(a.user, a.choice == agg.choice);
    }
  }
  return questions.size();
}

Status System::MaterializeBeliefs(const std::string& table) {
  if (ReadOnly()) {
    // Read-only brownout: refuse up front instead of letting the
    // transaction fail halfway through its inserts.
    return Status::Unavailable("system is read-only (storage failure): " +
                               ReadOnlyReason());
  }
  if (db_->GetTable(table) == nullptr) {
    rdbms::TableSchema schema;
    schema.table_name = table;
    schema.columns = {{"subject", rdbms::ValueType::kString},
                      {"attribute", rdbms::ValueType::kString},
                      {"value", rdbms::ValueType::kString},
                      {"confidence", rdbms::ValueType::kDouble}};
    STRUCTURA_RETURN_IF_ERROR(db_->CreateTable(schema).status());
  }
  std::unique_ptr<rdbms::Transaction> txn = db_->Begin();
  for (const uncertainty::AttributeBelief& b : beliefs_) {
    const uncertainty::ValueAlternative* top = b.Top();
    if (top == nullptr || top->probability <= 0) continue;
    rdbms::Row row = {rdbms::Value::Str(b.subject),
                      rdbms::Value::Str(b.attribute),
                      rdbms::Value::Str(top->value),
                      rdbms::Value::Double(top->probability)};
    STRUCTURA_RETURN_IF_ERROR(txn->Insert(table, std::move(row)).status());
  }
  return txn->Commit();
}

Result<IntegrityCounters> System::ScrubStorage() {
  TRACE_SPAN("system.scrub");
  static obs::Counter* scrubs =
      obs::MetricsRegistry::Default().GetCounter("integrity.scrubs");
  // Per-store passes, so the health signals can tell WAL trouble from
  // snapshot-journal trouble.
  IntegrityCounters db_counters;
  IntegrityCounters snapshot_counters;
  bool journal_damaged = false;
  STRUCTURA_RETURN_IF_ERROR(db_->Scrub(&db_counters));
  STRUCTURA_RETURN_IF_ERROR(
      snapshots_.Scrub(&snapshot_counters, &journal_damaged));
  IntegrityCounters counters = db_counters;
  counters.Merge(snapshot_counters);
  {
    std::lock_guard<std::mutex> lock(scrub_mutex_);
    last_scrub_db_ = db_counters;
    last_scrub_snapshots_ = snapshot_counters;
    last_scrub_ = counters;
    scrubbed_ = true;
    journal_damaged_ = journal_damaged;
  }
  scrubs->Increment();
  last_scrub_nanos_.store(clock()->NowNanos());
  obs::RecordEvent(obs::EventCategory::kWatchdog,
                   obs::EventCode::kWatchdogScrub,
                   counters.AnyDamage() ? 1 : 0, counters.corrupt_records, 0,
                   "scrub storage");
  PublishIntegrity("scrub", counters);
  return counters;
}

std::vector<query::SearchHit> System::KeywordSearch(const std::string& q,
                                                    size_t k) const {
  return keyword_index_.Search(q, k);
}

Result<std::vector<query::SearchHit>> System::KeywordSearch(
    const std::string& q, size_t k, const Interrupt& intr) const {
  return keyword_index_.Search(q, k, intr);
}

std::vector<query::QueryForm> System::SuggestQueries(
    const std::string& keywords) const {
  return translator_.Translate(keywords);
}

Result<std::vector<query::QueryForm>> System::SuggestQueries(
    const std::string& keywords, const Interrupt& intr) const {
  return translator_.Translate(keywords, intr);
}

Result<std::vector<query::SearchHit>> System::HybridSearch(
    const std::string& keywords,
    const std::vector<query::Condition>& conditions, size_t k,
    const Interrupt& intr) const {
  const query::Relation* rel = View(fact_view_);
  if (rel == nullptr) {
    return Status::FailedPrecondition(
        "no fact view bound (call BuildBeliefsFromView)");
  }
  query::HybridQuery hq;
  hq.keywords = keywords;
  hq.structured = conditions;
  return query::HybridSearch(keyword_index_, *rel, hq, k, intr, ctx_.exec);
}

Result<query::Relation> System::RunForm(const query::QueryForm& form,
                                        const Interrupt& intr) const {
  const query::Relation* rel = View(fact_view_);
  if (rel == nullptr) {
    return Status::FailedPrecondition(
        "no fact view bound (call BuildBeliefsFromView)");
  }
  auto execute = [&] {
    return query::ExecuteStructuredQuery(form.query, *rel, intr, ctx_.exec);
  };
  if (query_cache_ == nullptr || (ctx_.cache_gate && !ctx_.cache_gate())) {
    return execute();
  }
  // Forms run over exactly one input — the bound fact view — so their
  // cache entries carry a single epoch. The fingerprint is the rendered
  // SQL: two forms with identical SQL are the same query.
  return query_cache_->GetOrCompute(
      "form:" + fact_view_ + ":" + form.query.ToSql(), {"view:" + fact_view_},
      execute);
}

}  // namespace structura::core
