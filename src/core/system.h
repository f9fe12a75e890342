#ifndef STRUCTURA_CORE_SYSTEM_H_
#define STRUCTURA_CORE_SYSTEM_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/env.h"
#include "common/integrity.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "debugger/semantic_debugger.h"
#include "hi/aggregation.h"
#include "hi/simulated_user.h"
#include "ie/extractor.h"
#include "ii/schema_matcher.h"
#include "lang/executor.h"
#include "obs/flight_recorder.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "provenance/lineage.h"
#include "query/hybrid.h"
#include "query/keyword_index.h"
#include "query/result_cache.h"
#include "query/standing_query.h"
#include "query/translator.h"
#include "rdbms/database.h"
#include "serve/counters.h"
#include "serve/health.h"
#include "storage/snapshot_store.h"
#include "uncertainty/confidence.h"
#include "user/accounts.h"

namespace structura::core {

/// The end-to-end system of Figure 1, wired together: snapshot storage
/// for crawls, the SDL processing layer (IE + II + HI), uncertainty +
/// provenance over derived facts, the semantic debugger, a transactional
/// final store, and the user layer (keyword search, structured queries,
/// keyword->structured translation, accounts/reputation).
///
/// The DGE loop it implements (Section 3.2):
///   IngestCrawl -> RunProgram (EXTRACT/RESOLVE) -> BuildBeliefsFromView
///   -> RunFeedbackRound* -> MaterializeBeliefs -> exploitation
/// and exploitation can restart generation (incremental, best-effort).
class System {
 public:
  struct Options {
    /// Directory for the WAL/checkpoint of the final store. Empty =
    /// fully in-memory (still transactional, not durable).
    std::string workspace;
    /// I/O environment for every durable store (WAL, checkpoint,
    /// snapshot journal). nullptr = Env::Default(); tests pass a
    /// SimulatedEnv to exercise power cuts and, through its `env.*`
    /// failpoints, syscall-level failures.
    Env* env = nullptr;
    /// Time source for every timer in the system (watchdog interval
    /// and cooldowns, WAL group-commit window). nullptr = real time;
    /// crash-simulation tests pass a SimulatedClock so runs are
    /// deterministic and sweeps need not wait out real intervals.
    Clock* clock = nullptr;
    bool optimize_plans = true;
    uint64_t seed = 42;
    /// Directory automatic incident bundles are written under (one
    /// subdirectory per incident). Empty = fall back to the
    /// STRUCTURA_ARTIFACT_DIR environment variable; when that is unset
    /// too, incident dumps are disabled.
    std::string incident_dir;
    /// Minimum spacing between incident bundles, measured on `clock`:
    /// a flapping trigger produces one bundle per window plus a
    /// suppressed count, never a dump storm.
    uint64_t incident_cooldown_ms = 1000;
    /// Worker threads for morsel-parallel query execution. 1 = serial
    /// (no pool is created). Results are byte-identical across any
    /// value — parallelism is a scheduling choice, never a semantic
    /// one (see ExecutorOptions).
    size_t query_parallelism = 1;
    /// Rows per morsel; part of the determinism contract (aggregate
    /// merge boundaries follow morsel boundaries on every path).
    size_t query_morsel_rows = 1024;
    /// Result-cache capacity. Either knob at 0 disables caching
    /// entirely (no cache object is created).
    size_t query_cache_entries = 1024;
    size_t query_cache_bytes = 8u << 20;
  };

  static Result<std::unique_ptr<System>> Create(Options options);

  System(const System&) = delete;
  System& operator=(const System&) = delete;
  /// Stops the watchdog (if running) before members are destroyed.
  ~System();

  // --- Data generation -------------------------------------------------

  /// Stores a crawl into the versioned snapshot store and makes it the
  /// working document set (rebuilding the keyword index).
  Status IngestCrawl(const text::DocumentCollection& docs);

  const text::DocumentCollection& documents() const { return docs_; }

  /// Registers an extractor under an SDL name. `attribute_pattern` is the
  /// LIKE pattern of attributes it can produce ("temp_%", "%"...); it
  /// feeds the optimizer. The system takes ownership.
  void RegisterExtractor(std::string name, ie::ExtractorPtr extractor,
                         std::string attribute_pattern);

  /// Registers the standard corpus extractor suite and the built-in
  /// matchers (name, jaro_winkler, levenshtein).
  void RegisterStandardOperators();

  /// Runs an SDL program (CREATE VIEW / SELECT / EXPLAIN ...).
  Result<std::vector<lang::Interpreter::StatementResult>> RunProgram(
      const std::string& sdl);

  /// Runs a program and returns its final relation.
  Result<query::Relation> Query(const std::string& sdl);

  /// A materialized view by name, or nullptr.
  const query::Relation* View(const std::string& name) const;

  // --- Uncertainty, provenance, debugging ------------------------------

  /// Folds a fact view (columns subject/attribute/value/confidence; if an
  /// "entity" column exists it supersedes subject) into beliefs, wiring
  /// provenance from documents through facts to beliefs.
  Status BuildBeliefsFromView(const std::string& view);

  const std::vector<uncertainty::AttributeBelief>& beliefs() const {
    return beliefs_;
  }

  /// Derivation explanation for a belief (Part V's "explanation"):
  /// belief -> facts -> documents, plus any feedback that adjusted it.
  /// NotFound unless (subject, attribute) is in beliefs(). A row of a
  /// table written by MaterializeBeliefs is explained through its own
  /// (subject, attribute).
  Result<std::string> Explain(const std::string& subject,
                              const std::string& attribute) const;

  /// Learns semantic constraints from the current facts and returns the
  /// violations among them (Part VI).
  std::vector<debugger::Violation> AuditFacts();

  /// Unifies a view's attribute vocabulary against `canonical_attributes`
  /// (schema matching over names + instances), rewriting the view in
  /// place. Returns the applied renames.
  Result<std::map<std::string, std::string>> UnifyViewSchema(
      const std::string& view,
      const std::vector<std::string>& canonical_attributes,
      const ii::SchemaMatchOptions& options);

  // --- Human intervention ----------------------------------------------

  /// Ground-truth oracle used to *simulate* what humans know; returns the
  /// correct value for (subject, attribute) or nullopt when unknown.
  using Oracle = std::function<std::optional<std::string>(
      const std::string& subject, const std::string& attribute)>;

  enum class Aggregation { kMajority, kWeighted, kDawidSkene };

  struct FeedbackOptions {
    size_t budget = 50;            // questions asked this round
    size_t answers_per_task = 5;   // crowd answers gathered per question
    Aggregation aggregation = Aggregation::kMajority;
  };

  /// One mass-collaboration round, in one pass over the beliefs ranked
  /// by |top - 0.5| (belief index on ties): each belief the oracle can
  /// answer becomes a choose-one task with `answers_per_task` crowd
  /// answers, until `budget` tasks are asked. The consensus of each task
  /// is applied to its belief in rank order, with a feedback lineage node
  /// and reputation updates; a task without answers changes nothing.
  /// Returns the number of tasks asked.
  Result<size_t> RunFeedbackRound(const Oracle& oracle,
                                  std::vector<hi::SimulatedUser>* crowd,
                                  const FeedbackOptions& options);

  // --- Final structured store ------------------------------------------

  /// Writes the top alternative of every belief into an rdbms table
  /// (subject, attribute, value, confidence) in one transaction. Creates
  /// the table if needed. A row's provenance is its belief's: see
  /// Explain(subject, attribute).
  Status MaterializeBeliefs(const std::string& table);

  rdbms::Database* database() { return db_.get(); }

  /// Re-reads and re-verifies every byte of persistent storage — the
  /// final store's checkpoint and WAL, every snapshot version and the
  /// snapshot journal file — and returns what it found. The result is
  /// also remembered and surfaced in StatusReport().
  Result<IntegrityCounters> ScrubStorage();

  // --- Health & self-healing -------------------------------------------

  /// True while any durable write sink is latched failed (WAL or
  /// snapshot journal): the system is in read-only brownout — reads
  /// keep serving, writes are refused with kUnavailable until the
  /// watchdog (or an explicit HealStorage call) repairs the failed
  /// sinks. Always false for an in-memory system.
  bool ReadOnly() const;
  /// Why ReadOnly() is true (empty string otherwise).
  std::string ReadOnlyReason() const;

  /// Repairs failed durable sinks after the underlying disk recovers:
  /// probes the workspace with a real write+fsync first (a dead disk
  /// returns its error and heals nothing), then checkpoints the
  /// database (giving the WAL a fresh handle) and rewrites the snapshot
  /// journal from memory — when its handle failed, or when the latest
  /// ScrubStorage() found the journal file damaged (a restart would
  /// drop every page version past the damage). Idempotent; the watchdog
  /// calls this automatically. Safe under live transactional traffic:
  /// the heal checkpoint quiesces writers itself (Database::Checkpoint
  /// takes shared table locks), so it cannot persist another
  /// transaction's uncommitted rows. Snapshot ingest, as ever, must not
  /// race the journal rewrite.
  Status HealStorage();

  /// The system's health ledger. Built-in signals (registered at
  /// Create): `storage.wal` and `storage.snapshots`, each judged by its
  /// store's latest scrub once one ran, else by what recovery found at
  /// open; `storage.disk` from the I/O environment's failure ledger
  /// plus a live probe write (critical while the disk is unwritable or
  /// a sink is pending heal — the serve layer keys read-only brownout
  /// off it), `ie` from this System's own extractor quarantine ledger
  /// (degraded while any extractor is quarantined, critical when all
  /// are). Serving components add their own (Frontend tags operator
  /// breakers into `query.*` / `serve`). The model lives as long as the
  /// System; registrants must detach before the System is destroyed.
  serve::HealthModel& health() { return health_; }
  const serve::HealthModel& health() const { return health_; }

  struct WatchdogOptions {
    /// Health evaluation cadence.
    uint64_t interval_ms = 50;
    /// Minimum spacing between automatic scrubs, so a persistently
    /// damaged store doesn't turn the watchdog into a scrub loop.
    uint64_t scrub_cooldown_ms = 500;
    /// When true, an unhealthy storage signal triggers ScrubStorage()
    /// — re-verifying (and thereby re-judging) the stores, which
    /// promotes them back to healthy once the damage is repaired.
    /// Assumes ingest is quiesced while the watchdog runs (snapshot
    /// appends are not locked against the scrubber).
    bool auto_scrub = true;
    /// When true, an unhealthy `storage.disk` signal, or a latest scrub
    /// that found the snapshot journal file damaged, triggers
    /// HealStorage() — probe the disk, and once it accepts writes
    /// again, give every latched-failed sink a fresh handle and rewrite
    /// a damaged journal. Paired with its own cooldown so a still-dead
    /// disk is probed, not hammered.
    bool auto_heal = true;
    uint64_t heal_cooldown_ms = 200;
    /// When true (and the system has an incident directory), the
    /// watchdog dumps an incident bundle when: overall health demotes
    /// to critical, the system enters read-only brownout, breakers
    /// flap (>= breaker_flap_threshold open transitions across
    /// consecutive non-quiet ticks), or a request crosses the trace
    /// layer's slow-request threshold. Bundles are rate-limited by
    /// Options::incident_cooldown_ms.
    bool auto_incident = true;
    uint32_t breaker_flap_threshold = 3;
  };

  /// Starts the self-healing watchdog: a thread that evaluates the
  /// health model every `interval_ms`, auto-scrubs storage when its
  /// signals report trouble (with cooldown), and thereby re-probes
  /// degraded subsystems back toward healthy. Idempotent (restarts
  /// with the new options).
  void StartWatchdog(WatchdogOptions options);
  void StartWatchdog() { StartWatchdog(WatchdogOptions{}); }

  /// Stops and joins the watchdog. Safe when not running.
  void StopWatchdog();

  bool WatchdogRunning() const { return watchdog_running_.load(); }
  /// Health evaluations the watchdog has performed.
  uint64_t WatchdogTicks() const { return watchdog_ticks_.load(); }
  /// Automatic scrubs the watchdog has triggered.
  uint64_t WatchdogAutoScrubs() const { return watchdog_scrubs_.load(); }
  /// Automatic heal attempts the watchdog has triggered.
  uint64_t WatchdogAutoHeals() const { return watchdog_heals_.load(); }

  /// Machine-readable health: the model's JSON plus a watchdog block.
  /// {"health":{…},"watchdog":{"running":…,"ticks":…,"auto_scrubs":…,
  /// "auto_heals":…}}
  std::string HealthJson() const;

  // --- Exploitation -----------------------------------------------------

  std::vector<query::SearchHit> KeywordSearch(const std::string& q,
                                              size_t k) const;

  /// Interruptible keyword search: returns kDeadlineExceeded /
  /// kCancelled when `intr` fires mid-scoring.
  Result<std::vector<query::SearchHit>> KeywordSearch(
      const std::string& q, size_t k, const Interrupt& intr) const;

  /// Candidate structured-query forms for a keyword query, over the view
  /// last passed to BuildBeliefsFromView.
  std::vector<query::QueryForm> SuggestQueries(
      const std::string& keywords) const;

  /// Interruptible translation.
  Result<std::vector<query::QueryForm>> SuggestQueries(
      const std::string& keywords, const Interrupt& intr) const;

  /// Executes a suggested form against its fact view. `intr` is polled
  /// through the evaluation pipeline.
  Result<query::Relation> RunForm(const query::QueryForm& form,
                                  const Interrupt& intr = Interrupt{}) const;

  /// Hybrid DB+IR search: BM25 relevance restricted to documents whose
  /// extracted facts satisfy the structured conditions (evaluated over
  /// the view last passed to BuildBeliefsFromView). `intr` is polled
  /// through both sides.
  Result<std::vector<query::SearchHit>> HybridSearch(
      const std::string& keywords,
      const std::vector<query::Condition>& conditions, size_t k,
      const Interrupt& intr = Interrupt{}) const;

  /// Registers a standing query (the "monitoring" exploitation mode).
  Status Watch(query::StandingQueryRegistry::Spec spec);

  /// Re-evaluates every standing query bound to `view`; returns raised
  /// alerts. Call after CREATE VIEW / REFRESH VIEW runs.
  Result<std::vector<query::Alert>> CheckWatches(const std::string& view);

  /// One-page operational summary: documents, snapshot store, views,
  /// beliefs, lineage, users, monitor counters, quarantined operators,
  /// serving counters (when a provider is set), storage-integrity
  /// counters (recovery findings and the last scrub), fault-injection
  /// counters, and the process metrics registry (rendered compactly from
  /// the same snapshot MetricsPrometheus/MetricsJson expose).
  std::string StatusReport() const;

  /// Prometheus text exposition of the process metrics registry. Both
  /// formats and StatusReport() render from one registry snapshot type,
  /// so they always agree on names and values.
  static std::string MetricsPrometheus();

  /// JSON exposition of the process metrics registry.
  static std::string MetricsJson();

  /// JSON top-K expensive requests: per-request CostVector rollups with
  /// their span trees rendered lazily from the trace rings.
  static std::string ExpensiveRequestsJson();

  /// Incident-bundle manager, or nullptr when dumps are disabled (no
  /// incident_dir and no STRUCTURA_ARTIFACT_DIR). Tests use it to
  /// trigger a bundle explicitly and to read dump/suppression counts.
  obs::IncidentManager* incidents() { return incidents_.get(); }

  /// Wires a serving frontend's counters into StatusReport(). The
  /// provider is called on each report, so the section always reflects
  /// live values; pass nullptr to detach (e.g. before the frontend is
  /// destroyed).
  using ServingStatsProvider = std::function<serve::ServingCounters()>;
  void SetServingStatsProvider(ServingStatsProvider provider) {
    serving_stats_ = std::move(provider);
  }

  /// Extractors quarantined after exhausting their error budget during
  /// this System's program execution (graceful degradation; see
  /// ExecutionContext).
  std::set<std::string> QuarantinedExtractors() const {
    return ctx_.extractor_faults.Read().quarantined;
  }

  /// The epoch-versioned query result cache, or nullptr when disabled
  /// (query_cache_entries or query_cache_bytes = 0). Tests read stats
  /// and epochs through it; the interpreter consults it via the
  /// execution context.
  query::QueryResultCache* result_cache() const { return query_cache_.get(); }

  // --- Component access -------------------------------------------------

  lang::ExecutionContext& context() { return ctx_; }
  storage::SnapshotStore& snapshots() { return snapshots_; }
  provenance::LineageGraph& lineage() { return lineage_; }
  user::UserDirectory& users() { return users_; }
  debugger::SystemMonitor& monitor() { return monitor_; }
  debugger::SemanticDebugger& semantic_debugger() { return debugger_; }

 private:
  explicit System(Options options);

  Env* env() const {
    return options_.env != nullptr ? options_.env : Env::Default();
  }
  Clock* clock() const { return Clock::OrReal(options_.clock); }

  /// Registers the built-in storage/ie signals into health_ (called
  /// from Create, after the stores are open).
  void RegisterBuiltinHealthSignals();
  /// What opening the stores found: the final store's WAL and
  /// checkpoint, and the snapshot journal.
  IntegrityCounters RecoveryReport() const;
  /// Sets the `integrity.<pass>.<field>` gauges, one per field.
  void PublishIntegrity(const std::string& pass,
                        const IntegrityCounters& counters);
  /// journal_damaged_, read under scrub_mutex_.
  bool JournalDamaged() const;
  /// The watchdog thread body.
  void WatchdogLoop();
  /// Dumps an incident bundle for `trigger` if incidents are enabled
  /// (cooldown applied by the manager). Watchdog-thread only.
  void MaybeIncident(const char* trigger);

  Options options_;
  text::DocumentCollection docs_;
  storage::SnapshotStore snapshots_;
  query::KeywordIndex keyword_index_;
  /// Per-page text hash from the previous crawl, for change detection.
  std::map<text::DocId, uint64_t> last_text_hash_;

  std::vector<ie::ExtractorPtr> owned_extractors_;
  std::vector<std::unique_ptr<ii::SimilarityMatcher>> owned_matchers_;
  lang::ExecutionContext ctx_;
  /// This System's own metrics (the integrity.* gauges and the
  /// ie.quarantined_extractors callback gauge over ctx_), included in
  /// the process registry while the System lives. Declared after ctx_
  /// so it is gone before the state its callback reads.
  obs::MetricsRegistry metrics_{&obs::MetricsRegistry::Default()};

  std::unique_ptr<rdbms::Database> db_;
  /// Morsel-execution worker pool (null when query_parallelism <= 1)
  /// and the epoch-versioned result cache (null when disabled).
  /// ~System detaches the database commit listener before these die.
  std::unique_ptr<ThreadPool> query_pool_;
  std::unique_ptr<query::QueryResultCache> query_cache_;
  /// Guards the scrub results below: StatusReport() (any thread) and
  /// the watchdog's auto-scrub both touch them.
  mutable std::mutex scrub_mutex_;
  IntegrityCounters last_scrub_;
  /// Per-store views of the last scrub, so the health signals can tell
  /// WAL trouble from snapshot-journal trouble.
  IntegrityCounters last_scrub_db_;
  IntegrityCounters last_scrub_snapshots_;
  bool scrubbed_ = false;
  /// The last scrub found the snapshot journal file damaged, and no
  /// HealStorage() has rewritten it since.
  bool journal_damaged_ = false;

  /// Health ledger + self-healing watchdog. health_ must outlive every
  /// registrant: the built-in signals detach-never (they die with the
  /// System), external ones (Frontend) must detach before the System
  /// is destroyed. ~System stops the watchdog before any member dies.
  serve::HealthModel health_;
  std::atomic<size_t> extractor_count_{0};
  /// Guarded by watchdog_mutex_: StartWatchdog() reassigns it on a
  /// restart while HealthJson()/StatusReport() read it from other
  /// threads. The loop itself reads it unlocked — safe, because
  /// StartWatchdog joins the old thread before assigning and spawns the
  /// new one after (thread creation provides the happens-before edge).
  WatchdogOptions watchdog_options_;
  mutable std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::atomic<bool> watchdog_running_{false};
  std::atomic<uint64_t> watchdog_ticks_{0};
  std::atomic<uint64_t> watchdog_scrubs_{0};
  std::atomic<uint64_t> watchdog_heals_{0};
  /// Clock stamps of the last scrub/heal (any caller, not just the
  /// watchdog); -1 = never. StatusReport() surfaces their ages.
  std::atomic<int64_t> last_scrub_nanos_{-1};
  std::atomic<int64_t> last_heal_nanos_{-1};
  /// Automatic incident bundles (null when disabled). Sections
  /// registered at Create() capture `this`; ~System stops the watchdog
  /// (the only trigger source) before members are destroyed.
  std::unique_ptr<obs::IncidentManager> incidents_;
  std::thread watchdog_;
  std::vector<uncertainty::AttributeBelief> beliefs_;
  ie::FactSet current_facts_;
  std::string fact_view_;

  provenance::LineageGraph lineage_;
  user::UserDirectory users_;
  debugger::SemanticDebugger debugger_;
  debugger::SystemMonitor monitor_;
  query::KeywordTranslator translator_;
  query::StandingQueryRegistry watches_;
  ServingStatsProvider serving_stats_;
  uint64_t next_task_id_ = 1;
};

}  // namespace structura::core

#endif  // STRUCTURA_CORE_SYSTEM_H_
