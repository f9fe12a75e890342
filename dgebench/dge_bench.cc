// End-to-end DGE benchmark: drives one core::System (and, for the
// request workload, one serve::Frontend in front of it) through a seeded,
// deterministic workload and prints its metrics as one JSON line.
//
//   dge_bench --workload generate|collab --seed N --seconds S
//             --trace 0|1 --workdir DIR
//   dge_bench --probe          (host reference loops only)
//
// Every count a run produces (cache hits, extractor runs, rows, bytes)
// is a pure function of (workload, seed, seconds); only speed varies.
// The workload sizes and mixes are documented in NOTES.md.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/eval.h"
#include "core/system.h"
#include "corpus/generator.h"
#include "hi/simulated_user.h"
#include "obs/flight_recorder.h"
#include "serve/frontend.h"
#include "span_recorder.h"

namespace dgebench {
namespace {

namespace fs = std::filesystem;
using structura::Rng;
using structura::Status;
using structura::core::System;
namespace corpus = structura::corpus;
namespace hi = structura::hi;
namespace obs = structura::obs;
namespace query = structura::query;
namespace rdbms = structura::rdbms;
namespace serve = structura::serve;
namespace text = structura::text;

// ------------------------------------------------------------ workloads

/// The read and write classes a request can belong to.
enum class Kind { kKeyword, kForm, kSelect, kHybrid, kEdit, kFeedback, kRecrawl };
constexpr int kNumKinds = 7;
const char* const kKindNames[kNumKinds] = {
    "keyword", "form", "select", "hybrid", "edit", "feedback", "recrawl"};

struct Spec {
  const char* name;
  size_t cities;
  size_t news_pages;
  double typo;
  /// Full set-ups per run; setup_s is their median.
  int setups;
  /// Share of pages a recrawl edits.
  double churn;
  /// Measured operations per nominal second of --seconds: recrawl cycles
  /// in generate, requests in collab.
  double ops_per_s;
  /// collab: the measured requests form this many blocks of the same
  /// class mix; requests_per_s is the median block rate.
  size_t blocks;
  /// collab: requests replayed inside set-up before timing.
  size_t warmup_requests;
  /// collab: full recrawl cycles after the request slice.
  int refresh_cycles;
  /// Entities the questions are drawn from (Zipf-skewed).
  size_t question_entities;
  /// Relative frequency of each Kind; any class with a weight appears at
  /// least once per block.
  double weights[kNumKinds];
};

// Sizes are chosen so a run's timed work adds up to seconds, never a
// short window (NOTES.md, "What is measured, and how it stays steady").
const Spec kSpecs[] = {
    {"generate", 1000, 200, 0.1, 3, 0.05, 0.4, 0, 0, 0, 0,
     {0, 0, 0, 0, 0, 0, 0}},
    {"collab", 300, 0, 0.0, 5, 0.02, 1200, 10, 150, 10, 30,
     {2200, 1060, 1060, 540, 300, 1, 10}},
};

const char kFactsExtract[] =
    "EXTRACT infobox, temp_sentence, population_sentence, founded_sentence, "
    "elevation_sentence, mayor_sentence, residence_sentence FROM pages";
const char kResolve[] =
    "CREATE VIEW resolved AS RESOLVE ENTITIES FROM facts USING levenshtein "
    "THRESHOLD 0.95;";
const char kFinalTable[] = "final";

struct Op {
  Kind kind = Kind::kKeyword;
  std::string text;                     // keywords, form keywords, or SDL
  std::vector<query::Condition> conds;  // hybrid's structured side
  uint64_t r = 0;                       // edit: row choice
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool probe = false;
  std::string workdir;
  std::string trace_out;  // where the recorded spans are written
};

// ----------------------------------------------------------- host probe

/// Fixed integer loop: pure CPU, no memory traffic.
double CpuRefMs() {
  int64_t t0 = NowNanos();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 40'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  volatile uint64_t sink = x;
  (void)sink;
  return static_cast<double>(NowNanos() - t0) / 1e6;
}

/// Fixed chain of dependent random loads over a buffer larger than the
/// last-level cache: each address depends on the previous load.
double MemRefMs() {
  size_t llc = 32u << 20;
  if (std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size"); f) {
    std::string s;
    f >> s;
    size_t v = std::strtoull(s.c_str(), nullptr, 10);
    if (!s.empty() && (s.back() == 'K' || s.back() == 'k')) v <<= 10;
    if (!s.empty() && (s.back() == 'M' || s.back() == 'm')) v <<= 20;
    if (v > 0) llc = v;
  }
  size_t bytes = 64u << 20;
  while (bytes <= llc && bytes < (512u << 20)) bytes <<= 1;
  std::vector<uint32_t> buf(bytes / sizeof(uint32_t), 1);
  const uint64_t mask = buf.size() - 1;
  int64_t t0 = NowNanos();
  uint64_t idx = 0;
  for (uint64_t i = 0; i < 500'000; ++i) {
    uint64_t h = (idx + buf[idx] + i) * 0x9E3779B97F4A7C15ULL;
    idx = (h >> 17) & mask;
  }
  volatile uint64_t sink = idx;
  (void)sink;
  return static_cast<double>(NowNanos() - t0) / 1e6;
}

// ------------------------------------------------------------- helpers

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  uint64_t n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

uint64_t CrawlBytes(const text::DocumentCollection& docs) {
  uint64_t n = 0;
  for (const text::Document& d : docs.docs) n += d.text.size();
  return n;
}

std::string HitsToString(const std::vector<query::SearchHit>& hits) {
  std::string out;
  char buf[96];
  for (const query::SearchHit& h : hits) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ":%.17g:", h.doc, h.score);
    out += buf;
    out += h.title;
    out += '\n';
  }
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Metrics in print order: name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void Put(Metrics* m, const std::string& name, double value,
         const std::string& unit) {
  m->push_back({name, {value, unit}});
}

std::string MetricsJson(const Metrics& m) {
  std::string out = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + m[i].first + "\": {\"value\": " +
           JsonNumber(m[i].second.first) + ", \"unit\": \"" +
           m[i].second.second + "\"}";
  }
  return out + "}";
}

// --------------------------------------------------------------- runner

/// One set-up System (and Frontend) plus the bookkeeping the metrics
/// need. Members are destroyed in reverse order: the frontend, whose
/// handlers call into the system, goes first.
struct Instance {
  std::string workspace;
  std::unique_ptr<System> sys;
  std::vector<hi::SimulatedUser> crowd;
  text::DocumentCollection crawl;  // the crawl ingested last
  size_t recrawls = 0;             // crawls made from the base one
  uint64_t crawl_bytes = 0;        // every crawl ingested so far
  std::unique_ptr<serve::Frontend> frontend;
};

/// Destroys an instance and removes its workspace.
void Discard(std::unique_ptr<Instance> in) {
  std::string ws = in->workspace;
  in.reset();
  fs::remove_all(ws);
}

class Runner {
 public:
  Runner(const Args& args, const Spec& spec)
      : args_(args), spec_(spec), rec_(args.trace) {}

  int Run();

 private:
  // Inputs (untimed).
  void MakeInputs();
  void NextCrawl(Instance* in);
  std::vector<Op> MakeRequests(size_t n, size_t blocks, Rng* rng);

  // Set-up and the DGE stages, each inside its own span.
  std::unique_ptr<Instance> NewInstance(int k);
  bool SetUp(Instance* in);
  bool Sdl(Instance* in, const std::string& sdl, const char* span);
  bool Ingest(Instance* in);
  bool Beliefs(Instance* in);
  bool Feedback(Instance* in, size_t budget);
  bool Materialize(Instance* in);
  bool RecrawlCycle(Instance* in);
  void StartFrontend(Instance* in);

  // Requests through the Frontend.
  bool Send(Instance* in, const Op& op, std::string* answer,
             bool no_cache);
  Status Handle(Kind kind);

  // Answer checks (untimed).
  bool CheckGenerate(Instance* in);
  bool CheckReads(Instance* in, const std::vector<size_t>& sample);
  bool CheckMadison(Instance* in);
  bool CheckEdits(Instance* in);

  void WriteSpans(const std::string& path);

  void SetPhase(Phase phase) {
    phase_ = phase;
    rec_.set_phase(phase);
  }

  void Fail(const std::string& what) {
    std::fprintf(stderr, "dge_bench: %s\n", what.c_str());
    ++failed_;
  }

  const Args& args_;
  const Spec& spec_;
  SpanRecorder rec_;

  text::DocumentCollection base_;
  corpus::GroundTruth truth_;
  std::unordered_map<std::string, std::string> oracle_;
  std::vector<Op> warmup_;
  std::vector<Op> requests_;

  // The request the frontend worker is executing. Written by the client
  // before Frontend::Call and read by the handler; the frontend's queue
  // hand-off and the response future order the two.
  Instance* cur_in_ = nullptr;
  const Op* cur_op_ = nullptr;
  std::string* cur_answer_ = nullptr;
  size_t cur_request_ = 0;

  // Last committed value per edited row, for the read-back check.
  std::map<rdbms::RowId, std::string> edits_;

  Phase phase_ = Phase::kSetup;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t rows_scanned_ = 0;
  size_t hi_tasks_ = 0;
  std::vector<double> cycle_s_;
};

/// Edits the instance's crawl into the next seeded one. Every instance
/// walks the same sequence; an edit costs microseconds.
void Runner::NextCrawl(Instance* in) {
  corpus::MutateCrawl(args_.seed * 7919 + ++in->recrawls, spec_.churn,
                      &in->crawl);
}

void Runner::MakeInputs() {
  corpus::CorpusOptions co;
  co.num_cities = spec_.cities;
  co.num_people = spec_.cities * 2;
  co.num_companies = spec_.cities / 2;
  co.news_pages = spec_.news_pages;
  co.typo_prob = spec_.typo;
  co.infobox_dropout = 0.25;
  co.seed = args_.seed;
  corpus::GenerateCorpus(co, &base_, &truth_);
  // The simulated humans' knowledge: the first planted value of each
  // (entity, attribute), as bench_util's oracle answers it.
  for (const corpus::FactTruth& f : truth_.facts) {
    auto it = truth_.canonical_names.find(f.entity);
    if (it == truth_.canonical_names.end()) continue;
    oracle_.emplace(it->second + '\x1f' + f.attribute, f.value);
  }
}

std::vector<Op> Runner::MakeRequests(size_t n, size_t blocks, Rng* rng) {
  // Every block holds each class in a fixed count (at least one), so all
  // blocks and all seeds run the same mix; the seed orders each block and
  // picks the questions.
  double total = 0;
  for (double w : spec_.weights) total += w;
  std::vector<Kind> block;
  for (int k = 0; k < kNumKinds; ++k) {
    if (spec_.weights[k] <= 0) continue;
    size_t count = std::max<size_t>(
        1, static_cast<size_t>(spec_.weights[k] / total *
                                   static_cast<double>(n / blocks) + 0.5));
    block.insert(block.end(), count, static_cast<Kind>(k));
  }
  std::vector<Kind> kinds;
  for (size_t b = 0; b < blocks; ++b) {
    rng->Shuffle(block);
    kinds.insert(kinds.end(), block.begin(), block.end());
  }
  n = kinds.size();
  const size_t space = std::min(spec_.question_entities, truth_.cities.size());
  std::vector<Op> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const corpus::CityRecord& city = truth_.cities[rng->NextZipf(space, 0.9)];
    const std::string& c = city.name;
    uint64_t t = rng->NextBounded(4);
    Op op;
    op.kind = kinds[i];
    op.r = rng->Next();
    switch (op.kind) {
      case Kind::kKeyword: {
        // Long questions over common terms: each request scores long
        // posting lists, so keyword work, not the hand-off between
        // threads, dominates it.
        static const char* const kWords[] = {
            "what were the january february march april may june july "
            "august september october november december temperatures in %s",
            "population founded elevation mayor and state of the city of %s",
            "who is the mayor of %s and when was the city founded and what "
            "is its population",
            "%s elevation above sea level average temperature in january "
            "and july and population"};
        char buf[256];
        std::snprintf(buf, sizeof(buf), kWords[t], c.c_str());
        op.text = buf;
        break;
      }
      case Kind::kForm: {
        static const char* const kForms[] = {
            "average march september temperature %s", "population %s",
            "elevation %s", "average january june temperature %s"};
        char buf[256];
        std::snprintf(buf, sizeof(buf), kForms[t], c.c_str());
        op.text = buf;
        break;
      }
      case Kind::kSelect: {
        if (t == 0) {
          op.text = "SELECT subject, AVG(value) AS avg_temp FROM facts "
                    "WHERE subject = \"" + c + "\" AND attribute >= "
                    "\"temp_03\" AND attribute <= \"temp_09\" "
                    "GROUP BY subject;";
        } else if (t == 1) {
          op.text = "SELECT attribute, COUNT(*) AS n FROM facts WHERE "
                    "subject = \"" + c + "\" GROUP BY attribute "
                    "ORDER BY attribute LIMIT 8;";
        } else if (t == 2) {
          op.text = "SELECT subject, value FROM facts WHERE attribute = "
                    "\"population\" AND value > " +
                    std::to_string(city.population) +
                    " ORDER BY value DESC LIMIT 10;";
        } else {
          op.text = "SELECT subject, r_attribute, r_value FROM mayors JOIN "
                    "people ON value = subject WHERE subject = \"" + c +
                    "\";";
        }
        break;
      }
      case Kind::kHybrid: {
        op.text = c + (t % 2 == 0 ? " temperature" : " mayor");
        query::Condition cond;
        cond.column = "attribute";
        cond.op = query::CompareOp::kEq;
        cond.literal = query::Value::Str("population");
        query::Condition bound;
        bound.column = "value";
        bound.op = t < 2 ? query::CompareOp::kGe : query::CompareOp::kLe;
        bound.literal = query::Value::Int(city.population);
        op.conds = {cond, bound};
        break;
      }
      default:
        break;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

// --------------------------------------------------------------- stages

bool Runner::Sdl(Instance* in, const std::string& sdl, const char* span) {
  SpanRecorder::Scope s(&rec_, span);
  auto r = in->sys->RunProgram(sdl);
  if (!r.ok()) {
    Fail(sdl + ": " + r.status().ToString());
    return false;
  }
  return true;
}

bool Runner::Ingest(Instance* in) {
  SpanRecorder::Scope s(&rec_, "storage.ingest");
  Status st = in->sys->IngestCrawl(in->crawl);
  if (!st.ok()) {
    Fail("IngestCrawl: " + st.ToString());
    return false;
  }
  in->crawl_bytes += CrawlBytes(in->crawl);
  return true;
}

bool Runner::Beliefs(Instance* in) {
  SpanRecorder::Scope s(&rec_, "uncertainty.beliefs");
  Status st = in->sys->BuildBeliefsFromView("resolved");
  if (!st.ok()) Fail("BuildBeliefsFromView: " + st.ToString());
  return st.ok();
}

bool Runner::Feedback(Instance* in, size_t budget) {
  SpanRecorder::Scope s(&rec_, "hi.feedback");
  System::FeedbackOptions fo;
  fo.budget = budget;
  fo.answers_per_task = 5;
  auto oracle = [this](const std::string& subject,
                       const std::string& attribute)
      -> std::optional<std::string> {
    auto it = oracle_.find(subject + '\x1f' + attribute);
    if (it == oracle_.end()) return std::nullopt;
    return it->second;
  };
  auto asked = in->sys->RunFeedbackRound(oracle, &in->crowd, fo);
  if (!asked.ok()) {
    Fail("RunFeedbackRound: " + asked.status().ToString());
    return false;
  }
  if (phase_ == Phase::kMeasured) hi_tasks_ += *asked;
  return true;
}

bool Runner::Materialize(Instance* in) {
  SpanRecorder::Scope s(&rec_, "rdbms.materialize");
  Status st = in->sys->MaterializeBeliefs(kFinalTable);
  if (!st.ok()) Fail("MaterializeBeliefs: " + st.ToString());
  return st.ok();
}

/// One recrawl cycle: the next crawl through the whole DGE loop.
bool Runner::RecrawlCycle(Instance* in) {
  NextCrawl(in);  // input generation stays outside the timing
  SpanRecorder::Scope s(&rec_, "cycle");
  int64_t t0 = NowNanos();
  bool ok = Ingest(in) && Sdl(in, "REFRESH VIEW facts;", "lang.refresh") &&
            Sdl(in, kResolve, "ii.resolve") && Beliefs(in) &&
            Feedback(in, 50) && Materialize(in);
  cycle_s_.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  return ok;
}

void Runner::StartFrontend(Instance* in) {
  serve::Frontend::Options fo;
  fo.num_threads = 1;
  in->frontend = std::make_unique<serve::Frontend>(fo);
  for (int k = 0; k < kNumKinds; ++k) {
    Kind kind = static_cast<Kind>(k);
    in->frontend->RegisterOperator(
        kKindNames[k],
        [this, kind](const serve::RequestContext&) { return Handle(kind); });
  }
  for (const char* w : {"edit", "feedback", "recrawl"}) {
    in->frontend->MarkWrite(w);
  }
}

/// The inputs of one set-up: its workspace path, the base crawl and the
/// simulated crowd. Made before the set-up timer starts.
std::unique_ptr<Instance> Runner::NewInstance(int k) {
  auto in = std::make_unique<Instance>();
  in->workspace = args_.workdir + "/setup" + std::to_string(k);
  fs::remove_all(in->workspace);
  in->crowd = hi::MakeCrowd(9, 0.75, 0.95, args_.seed);
  in->crawl = base_;
  edits_.clear();
  return in;
}

bool Runner::SetUp(Instance* in) {
  System::Options so;
  so.workspace = in->workspace;
  so.seed = args_.seed;
  {
    SpanRecorder::Scope s(&rec_, "system.create");
    auto sys = System::Create(so);
    if (!sys.ok()) {
      Fail("System::Create: " + sys.status().ToString());
      return false;
    }
    in->sys = std::move(sys).value();
    in->sys->RegisterStandardOperators();
  }
  bool ok =
      Ingest(in) &&
      Sdl(in, std::string("CREATE VIEW facts AS ") + kFactsExtract + ";",
          "ie.extract") &&
      Sdl(in,
          "CREATE VIEW mayors AS EXTRACT infobox, mayor_sentence FROM pages "
          "WHERE attribute = \"mayor\";",
          "ie.extract") &&
      Sdl(in,
          "CREATE VIEW people AS EXTRACT infobox, residence_sentence FROM "
          "pages WHERE category = \"Person\";",
          "ie.extract") &&
      Sdl(in, kResolve, "ii.resolve") && Beliefs(in) && Feedback(in, 100) &&
      Materialize(in);
  if (!ok) return false;
  if (!requests_.empty()) {
    SpanRecorder::Scope s(&rec_, "serve.start");
    StartFrontend(in);
  }
  for (const Op& op : warmup_) {
    if (!Send(in, op, nullptr, false)) return false;
  }
  return true;
}

// ------------------------------------------------------------- requests

bool Runner::Send(Instance* in, const Op& op, std::string* answer,
                   bool no_cache) {
  static const char* const kCallSpans[kNumKinds] = {
      "call.keyword", "call.form",     "call.select", "call.hybrid",
      "call.edit",    "call.feedback", "call.recrawl"};
  if (op.kind == Kind::kRecrawl) NextCrawl(in);
  cur_in_ = in;
  cur_op_ = &op;
  cur_answer_ = answer;
  serve::RequestContext ctx;
  ctx.id = ++cur_request_;
  ctx.no_cache = no_cache;
  rec_.set_request(ctx.id);
  std::shared_ptr<obs::CostAccumulator> cost;
  if (rec_.enabled()) {
    cost = std::make_shared<obs::CostAccumulator>();
    ctx.cost = cost;
  }
  Status st;
  {
    SpanRecorder::Scope s(&rec_, kCallSpans[static_cast<int>(op.kind)]);
    st = in->frontend->Call(kKindNames[static_cast<int>(op.kind)],
                            std::move(ctx));
  }
  ++attempted_;
  if (cost != nullptr && phase_ == Phase::kMeasured) {
    rows_scanned_ += cost->Snapshot()[obs::CostDim::kRowsScanned];
  }
  if (!st.ok()) {
    Fail(std::string(kKindNames[static_cast<int>(op.kind)]) + " \"" +
         op.text + "\": " + st.ToString());
    return false;
  }
  return true;
}

Status Runner::Handle(Kind kind) {
  static const char* const kHandlerSpans[kNumKinds] = {
      "handler.keyword", "handler.form",     "handler.select",
      "handler.hybrid",  "handler.edit",     "handler.feedback",
      "handler.recrawl"};
  SpanRecorder::Scope hs(&rec_, kHandlerSpans[static_cast<int>(kind)]);
  Instance* in = cur_in_;
  System* sys = in->sys.get();
  const Op& op = *cur_op_;
  query::QueryResultCache* cache = sys->result_cache();
  auto hits = [cache] { return cache == nullptr ? 0 : cache->stats().hits; };
  switch (kind) {
    case Kind::kKeyword: {
      SpanRecorder::Scope s(&rec_, "query.keyword");
      auto r = sys->KeywordSearch(op.text, 20, structura::Interrupt{});
      if (!r.ok()) return r.status();
      if (r->empty()) return Status::NotFound("no hits for " + op.text);
      if (cur_answer_ != nullptr) *cur_answer_ = HitsToString(*r);
      return Status::OK();
    }
    case Kind::kForm: {
      std::vector<query::QueryForm> forms;
      {
        SpanRecorder::Scope s(&rec_, "query.translate");
        auto r = sys->SuggestQueries(op.text, structura::Interrupt{});
        if (!r.ok()) return r.status();
        forms = std::move(*r);
      }
      if (forms.empty()) return Status::NotFound("no form for " + op.text);
      uint64_t before = rec_.enabled() ? hits() : 0;
      SpanRecorder::Scope s(&rec_, "query.form_miss");
      auto r = sys->RunForm(forms.front());
      if (!r.ok()) return r.status();
      if (rec_.enabled() && hits() > before) {
        rec_.Rename(s.id(), "query.form_hit");
      }
      if (cur_answer_ != nullptr) *cur_answer_ = r->ToString(SIZE_MAX);
      return Status::OK();
    }
    case Kind::kSelect: {
      uint64_t before = rec_.enabled() ? hits() : 0;
      SpanRecorder::Scope s(&rec_, "lang.select_miss");
      auto r = sys->Query(op.text);
      if (!r.ok()) return r.status();
      if (rec_.enabled() && hits() > before) {
        rec_.Rename(s.id(), "lang.select_hit");
      }
      if (cur_answer_ != nullptr) *cur_answer_ = r->ToString(SIZE_MAX);
      return Status::OK();
    }
    case Kind::kHybrid: {
      SpanRecorder::Scope s(&rec_, "query.hybrid");
      auto r = sys->HybridSearch(op.text, op.conds, 10);
      if (!r.ok()) return r.status();
      if (cur_answer_ != nullptr) *cur_answer_ = HitsToString(*r);
      return Status::OK();
    }
    case Kind::kEdit: {
      rdbms::Database* db = sys->database();
      rdbms::Table* table = db->GetTable(kFinalTable);
      if (table == nullptr || table->LiveRowCount() == 0) {
        return Status::NotFound("no final table");
      }
      rdbms::RowId rid = op.r % table->LiveRowCount();
      std::unique_ptr<rdbms::Transaction> txn;
      std::string value;
      {
        SpanRecorder::Scope s(&rec_, "rdbms.edit");
        txn = db->Begin();
        auto row = txn->Get(kFinalTable, rid);
        if (!row.ok()) return row.status();
        // A human correction: the true value where the oracle knows it,
        // stated with full confidence.
        const std::string subject = (*row)[0].ToString();
        const std::string attribute = (*row)[1].ToString();
        auto truth = oracle_.find(subject + '\x1f' + attribute);
        value = truth != oracle_.end() ? truth->second : (*row)[2].ToString();
        rdbms::Row updated = *row;
        updated[2] = rdbms::Value::Str(value);
        updated[3] = rdbms::Value::Double(1.0);
        Status st = txn->Update(kFinalTable, rid, std::move(updated));
        if (!st.ok()) return st;
      }
      SpanRecorder::Scope s(&rec_, "rdbms.commit");
      Status st = txn->Commit();
      if (st.ok()) edits_[rid] = value;
      return st;
    }
    case Kind::kFeedback:
      if (!Feedback(in, 50) || !Materialize(in)) {
        return Status::Internal("feedback write failed");
      }
      return Status::OK();
    case Kind::kRecrawl: {
      if (!Ingest(in) || !Sdl(in, "REFRESH VIEW facts;", "lang.refresh")) {
        return Status::Internal("recrawl write failed");
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown request kind");
}

// --------------------------------------------------------------- checks

/// The refreshed fact view equals a from-scratch EXTRACT over the final
/// crawl, compared as a multiset of rows.
bool Runner::CheckGenerate(Instance* in) {
  if (!Sdl(in, std::string("CREATE VIEW facts_check AS ") + kFactsExtract +
                   ";",
           "check")) {
    return false;
  }
  auto rows = [](const query::Relation* rel) {
    std::multiset<std::string> out;
    for (const query::Row& r : rel->rows()) {
      std::string k;
      for (const query::Value& v : r) k += v.ToString() + '\x1f';
      out.insert(std::move(k));
    }
    return out;
  };
  const query::Relation* refreshed = in->sys->View("facts");
  const query::Relation* rebuilt = in->sys->View("facts_check");
  if (refreshed == nullptr || rebuilt == nullptr ||
      rows(refreshed) != rows(rebuilt)) {
    Fail("refreshed fact view differs from a from-scratch EXTRACT");
    return false;
  }
  return true;
}

/// A seeded sample of the slice's reads, re-run now: the answer the cache
/// gives equals a fresh no_cache answer byte for byte.
bool Runner::CheckReads(Instance* in, const std::vector<size_t>& sample) {
  bool ok = true;
  for (size_t i : sample) {
    const Op& op = requests_[i];
    std::string cached, fresh;
    if (!Send(in, op, &cached, false) || !Send(in, op, &fresh, true)) {
      return false;
    }
    if (cached != fresh) {
      Fail("cached answer differs from a no_cache answer: " + op.text);
      ok = false;
    }
  }
  return ok;
}

/// The paper's question: Madison's March-September average temperature,
/// over the distinct extracted monthly values, against the planted ones.
bool Runner::CheckMadison(Instance* in) {
  const corpus::CityRecord* madison = truth_.FindCity("Madison");
  if (madison == nullptr) {
    Fail("corpus lacks Madison");
    return false;
  }
  std::map<std::string, double> planted;
  for (const corpus::FactTruth& f : truth_.facts) {
    if (f.entity == madison->id && f.attribute >= "temp_03" &&
        f.attribute <= "temp_09") {
      planted[f.attribute] = f.numeric_value;
    }
  }
  double sum = 0;
  for (const auto& [attribute, v] : planted) sum += v;
  double truth = planted.empty() ? 0 : sum / static_cast<double>(planted.size());
  auto r = in->sys->Query(
      "CREATE VIEW madison_temps AS SELECT DISTINCT subject, attribute, value "
      "FROM facts WHERE subject = \"Madison\" AND attribute >= \"temp_03\" "
      "AND attribute <= \"temp_09\";"
      "SELECT subject, AVG(value) AS avg_temp FROM madison_temps "
      "GROUP BY subject;");
  double got = 0;
  if (planted.empty() || !r.ok() || r->size() != 1 ||
      !r->rows()[0][1].ToNumber(&got) || std::abs(got - truth) > 0.01) {
    Fail("Madison March-September average: got " + JsonNumber(got) +
         ", truth " + JsonNumber(truth));
    return false;
  }
  return true;
}

/// Every corrected row reads back with the value last committed to it.
bool Runner::CheckEdits(Instance* in) {
  if (edits_.empty()) {
    Fail("no corrections were committed");
    return false;
  }
  auto txn = in->sys->database()->Begin();
  bool ok = true;
  for (const auto& [rid, value] : edits_) {
    auto row = txn->Get(kFinalTable, rid);
    if (!row.ok() || (*row)[2].ToString() != value) {
      Fail("correction of row " + std::to_string(rid) + " did not persist");
      ok = false;
    }
  }
  return txn->Commit().ok() && ok;
}

// ------------------------------------------------------------------ run

/// Writes the recorded spans, one JSON object per line.
void Runner::WriteSpans(const std::string& path) {
  static const char* const kPhaseNames[] = {"setup", "measured", "check"};
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : rec_.spans()) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request_id << ", \"phase\": \""
        << kPhaseNames[static_cast<int>(s.phase)] << "\"}\n";
  }
  if (!out) Fail("cannot write spans to " + path);
}

int Runner::Run() {
  const bool generate = std::strcmp(spec_.name, "generate") == 0;
  fs::create_directories(args_.workdir);
  MakeInputs();
  Rng rng(args_.seed ^ 0xD6E8FEB86659FD93ULL);
  size_t n_cycles = 0;
  if (generate) {
    n_cycles = std::max<size_t>(
        1, static_cast<size_t>(args_.seconds * spec_.ops_per_s + 0.5));
  } else {
    warmup_ = MakeRequests(spec_.warmup_requests, 1, &rng);
    requests_ = MakeRequests(
        std::max<size_t>(spec_.blocks,
                         static_cast<size_t>(args_.seconds * spec_.ops_per_s)),
        spec_.blocks, &rng);
  }
  // A seeded sample of requests whose answers are re-checked.
  std::vector<size_t> sample;
  for (size_t i = 0; i < requests_.size(); ++i) {
    Kind k = requests_[i].kind;
    if (k <= Kind::kHybrid && rng.NextBounded(50) == 0) sample.push_back(i);
  }

  // Set-up, several times; the last instance runs the measured phase.
  std::vector<double> setup_s;
  std::unique_ptr<Instance> in;
  SetPhase(Phase::kSetup);
  for (int k = 0; k < spec_.setups; ++k) {
    if (in != nullptr) Discard(std::move(in));
    in = NewInstance(k);
    int64_t t0 = NowNanos();
    bool set_up = false;
    {
      SpanRecorder::Scope s(&rec_, "setup");
      set_up = SetUp(in.get());
    }
    setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    if (!set_up) return 1;
  }

  // Measured phase.
  SetPhase(Phase::kMeasured);
  query::QueryResultCache* cache = in->sys->result_cache();
  query::QueryResultCache::Stats cache0 = cache->stats();
  size_t runs0 = in->sys->context().extractor_runs;
  serve::ServingCounters serve0;
  if (in->frontend != nullptr) serve0 = in->frontend->Counters();
  double slice_s = 0;
  uint64_t ops = 0;
  std::vector<double> block_rates;  // requests per second of each block
  bool ok = true;
  if (generate) {
    for (size_t c = 0; c < n_cycles && ok; ++c) {
      ok = RecrawlCycle(in.get());
      ++attempted_;
    }
    for (double s : cycle_s_) {
      slice_s += s;
      block_rates.push_back(1.0 / s);
    }
    ops = cycle_s_.size();
  } else {
    const size_t per_block = requests_.size() / spec_.blocks;
    for (size_t b = 0; ok && b < spec_.blocks; ++b) {
      int64_t t0 = NowNanos();
      for (size_t i = b * per_block; i < (b + 1) * per_block; ++i) {
        if (!Send(in.get(), requests_[i], nullptr, false)) {
          ok = false;
          break;
        }
      }
      double block_s = static_cast<double>(NowNanos() - t0) / 1e9;
      slice_s += block_s;
      block_rates.push_back(static_cast<double>(per_block) / block_s);
    }
    ops = requests_.size();
  }
  query::QueryResultCache::Stats cache1 = cache->stats();
  serve::ServingCounters serve1;
  if (in->frontend != nullptr) serve1 = in->frontend->Counters();
  // Shares of the measured slice by request class, from the call spans.
  std::vector<Span> slice_spans = rec_.spans();

  // Answer checks for the request slice, before any later write.
  SetPhase(Phase::kCheck);
  if (ok && !generate) {
    ok = CheckReads(in.get(), sample);
    ok = CheckMadison(in.get()) && ok;
    ok = CheckEdits(in.get()) && ok;
  }
  // Recrawl cycles after the slice give refresh_s on both workloads.
  SetPhase(Phase::kMeasured);
  for (int c = 0; ok && !generate && c < spec_.refresh_cycles; ++c) {
    ok = RecrawlCycle(in.get());
    ++attempted_;
  }
  SetPhase(Phase::kCheck);
  if (ok && generate) ok = CheckGenerate(in.get());

  double f1 = structura::core::ScoreBeliefs(in->sys->beliefs(), truth_).f1();
  if (ok && f1 < 0.75) {
    Fail("belief F1 " + JsonNumber(f1) + " below the 0.75 floor");
    ok = false;
  }
  const std::string db_dir = in->workspace + "/db";
  uint64_t disk = DirBytes(in->workspace);
  rdbms::Table* final_table = in->sys->database()->GetTable(kFinalTable);

  // Counts that must repeat exactly for a given (workload, seed, seconds).
  Metrics counts;
  Put(&counts, "query.cache.hits", static_cast<double>(cache1.hits - cache0.hits), "count");
  Put(&counts, "query.cache.misses", static_cast<double>(cache1.misses - cache0.misses), "count");
  Put(&counts, "query.cache.evictions",
      static_cast<double>(cache1.evictions - cache0.evictions), "count");
  Put(&counts, "query.cache.invalidations",
      static_cast<double>(cache1.invalidations - cache0.invalidations), "count");
  Put(&counts, "ie.extractor_runs",
      static_cast<double>(in->sys->context().extractor_runs - runs0), "count");
  Put(&counts, "hi.tasks", static_cast<double>(hi_tasks_), "count");
  Put(&counts, "rdbms.final_rows",
      final_table == nullptr ? 0 : static_cast<double>(final_table->LiveRowCount()),
      "count");
  Put(&counts, "rdbms.wal_bytes", static_cast<double>(FileBytes(db_dir + "/wal.log")), "B");
  Put(&counts, "storage.snapshot_bytes",
      static_cast<double>(in->sys->snapshots().StoredBytes()), "B");
  Put(&counts, "provenance.nodes", static_cast<double>(in->sys->lineage().NumNodes()), "count");
  Put(&counts, "workspace_bytes", static_cast<double>(disk), "B");
  Put(&counts, "crawl_bytes", static_cast<double>(in->crawl_bytes), "B");
  Put(&counts, "operations", static_cast<double>(ops), "count");
  const double crawl_bytes = static_cast<double>(in->crawl_bytes);
  Discard(std::move(in));
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);

  Metrics e2e;
  Put(&e2e, "setup_s", Median(setup_s), "s");
  Put(&e2e, "refresh_s", Median(cycle_s_), "s");
  Put(&e2e, "requests_per_s", Median(block_rates), "1/s");
  Put(&e2e, "belief_f1", f1, "ratio");
  Put(&e2e, "peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  Put(&e2e, "disk_bytes_per_input_byte", static_cast<double>(disk) / crawl_bytes,
      "ratio");

  Metrics layer;
  if (rec_.enabled()) {
    std::vector<Span> spans = rec_.spans();
    auto setup = Rollup(spans, Phase::kSetup);
    auto measured = Rollup(spans, Phase::kMeasured);
    auto busy = [](std::map<std::string, SpanClass>& m, const char* name) {
      auto it = m.find(name);
      return it == m.end() ? 0.0 : it->second.busy_s;
    };
    const double k = static_cast<double>(spec_.setups);
    struct Stage {
      const char* metric;
      std::vector<const char*> spans;
    };
    const Stage stages[] = {
        {"storage.ingest_s", {"storage.ingest"}},
        {"ie.extract_s", {"ie.extract", "lang.refresh"}},
        {"ii.resolve_s", {"ii.resolve"}},
        {"uncertainty.beliefs_s", {"uncertainty.beliefs"}},
        {"hi.feedback_s", {"hi.feedback"}},
        {"rdbms.materialize_s", {"rdbms.materialize"}},
    };
    for (const Stage& st : stages) {
      double m = 0, s = 0;
      for (const char* n : st.spans) {
        m += busy(measured, n);
        s += busy(setup, n);
      }
      Put(&layer, st.metric, m, "s");
      Put(&layer, std::string("setup.") + st.metric, s / k, "s");
    }
    auto latency = [&](const std::string& metric, const char* span) {
      auto it = measured.find(span);
      std::vector<double> d;
      if (it != measured.end()) d = it->second.duration_ms;
      int tail = TailPercentile(d.size());
      Put(&layer, metric + "_ms_p50", Percentile(d, 50), "ms");
      Put(&layer, metric + "_ms_p" + std::to_string(tail), Percentile(d, tail),
          "ms");
      Put(&layer, metric + "_ms_n", static_cast<double>(d.size()), "count");
    };
    latency("lang.refresh", "lang.refresh");
    latency("lang.select_hit", "lang.select_hit");
    latency("lang.select_miss", "lang.select_miss");
    latency("query.keyword", "query.keyword");
    latency("query.translate", "query.translate");
    latency("query.form_hit", "query.form_hit");
    latency("query.form_miss", "query.form_miss");
    latency("query.hybrid", "query.hybrid");
    latency("rdbms.edit", "rdbms.edit");
    latency("rdbms.commit", "rdbms.commit");
    // Serve overhead: each Call span minus its handler child.
    {
      std::vector<double> overhead;
      for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (s.phase != Phase::kMeasured || s.parent < 0) continue;
        if (s.name.rfind("handler.", 0) != 0) continue;
        const Span& call = spans[static_cast<size_t>(s.parent)];
        overhead.push_back(static_cast<double>((call.end_ns - call.start_ns) -
                                               (s.end_ns - s.start_ns)) /
                           1e6);
      }
      int tail = TailPercentile(overhead.size());
      Put(&layer, "serve.overhead_ms_p50", Percentile(overhead, 50), "ms");
      Put(&layer, "serve.overhead_ms_p" + std::to_string(tail),
          Percentile(overhead, tail), "ms");
      Put(&layer, "serve.overhead_ms_n", static_cast<double>(overhead.size()),
          "count");
    }
    Put(&layer, "serve.failed",
        static_cast<double>((serve1.issued - serve0.issued) -
                            (serve1.ok - serve0.ok)),
        "count");
    Put(&layer, "serve.retries", static_cast<double>(serve1.retries - serve0.retries),
        "count");
    uint64_t lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
    Put(&layer, "query.cache.hit_ratio",
        lookups == 0 ? 0 : static_cast<double>(cache1.hits - cache0.hits) /
                               static_cast<double>(lookups),
        "ratio");
    Put(&layer, "query.rows_scanned_per_request",
        requests_.empty() ? 0
                          : static_cast<double>(rows_scanned_) /
                                static_cast<double>(requests_.size()),
        "count");
    auto slice = Rollup(slice_spans, Phase::kMeasured);
    for (int kk = 0; kk < kNumKinds; ++kk) {
      std::string call = std::string("call.") + kKindNames[kk];
      Put(&layer, std::string("mix.") + kKindNames[kk] + "_share",
          generate ? 0 : busy(slice, call.c_str()) / slice_s, "ratio");
    }
    for (const auto& [name, c] : measured) {
      Put(&layer, "self." + name + "_s", c.self_s, "s");
    }
    for (const auto& [name, c] : setup) {
      Put(&layer, "self.setup." + name + "_s", c.self_s / k, "s");
    }
  }

  std::printf("workload %s seed %" PRIu64 ": %zu pages, %" PRIu64
              " crawl bytes, %" PRIu64 " operations in %.3f s\n",
              spec_.name, args_.seed, base_.docs.size(),
              static_cast<uint64_t>(crawl_bytes), ops, slice_s);
  for (const auto& [name, v] : e2e) {
    std::printf("  %-32s %14.6g %s\n", name.c_str(), v.first, v.second.c_str());
  }
  for (const auto& [name, v] : counts) {
    std::printf("  %-32s %14.0f %s\n", name.c_str(), v.first, v.second.c_str());
  }
  for (const auto& [name, v] : layer) {
    std::printf("  %-32s %14.6g %s\n", name.c_str(), v.first, v.second.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"slice_s\": %s, \"end_to_end\": %s, \"counts\": %s, "
      "\"per_layer\": %s}\n",
      ok && failed_ == 0 ? "true" : "false", attempted_, failed_,
      JsonNumber(slice_s).c_str(), MetricsJson(e2e).c_str(),
      MetricsJson(counts).c_str(), MetricsJson(layer).c_str());
  std::fflush(stdout);

  if (rec_.enabled() && !args_.trace_out.empty()) WriteSpans(args_.trace_out);
  return ok && failed_ == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dge_bench: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (a == "--probe") {
      args->probe = true;
    } else if (a == "--workload") {
      if ((v = value("--workload")) == nullptr) return false;
      args->workload = v;
    } else if (a == "--seed") {
      if ((v = value("--seed")) == nullptr) return false;
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      if ((v = value("--seconds")) == nullptr) return false;
      args->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      if ((v = value("--trace")) == nullptr) return false;
      args->trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-out") {
      if ((v = value("--trace-out")) == nullptr) return false;
      args->trace_out = v;
    } else if (a == "--workdir") {
      if ((v = value("--workdir")) == nullptr) return false;
      args->workdir = v;
    } else {
      std::fprintf(stderr, "dge_bench: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace dgebench

int main(int argc, char** argv) {
  using namespace dgebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.probe) {
    double cpu = CpuRefMs();
    double mem = MemRefMs();
    std::printf("{\"host.cpu_ref_ms\": %s, \"host.mem_ref_ms\": %s}\n",
                JsonNumber(cpu).c_str(), JsonNumber(mem).c_str());
    return 0;
  }
  if (args.workdir.empty() || !(args.seconds > 0)) {
    std::fprintf(stderr, "dge_bench: --workdir and --seconds > 0 required\n");
    return 2;
  }
  for (const Spec& spec : kSpecs) {
    if (args.workload == spec.name) {
      Runner runner(args, spec);
      return runner.Run();
    }
  }
  std::fprintf(stderr, "dge_bench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
