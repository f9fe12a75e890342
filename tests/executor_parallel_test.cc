// Differential lockdown of morsel-parallel query execution. The
// contract under test (ExecutorOptions): results are a pure function of
// the input and `morsel_rows`, never of `parallelism` — the parallel
// path must match the serial path element-for-element, float bits
// included, at every worker count; interrupts must be honored between
// morsels (a query returns either the full correct answer or a clean
// kDeadlineExceeded/kCancelled, never a truncated relation).
//
// The deterministic tests run in the tier-1 suite; the seeded
// random-plan sweep lives in ParallelSweepTest.* and is labelled
// `parallel` (ctest -L parallel), mirroring the crash-sim layout.
// Every sweep failure reproduces from the printed STRUCTURA_PARALLEL_SEED;
// STRUCTURA_PARALLEL_ITERS scales the iteration count.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/deadline.h"
#include "common/thread_pool.h"
#include "core/system.h"
#include "corpus/generator.h"
#include "ie/standard.h"
#include "lang/executor.h"
#include "lang/plan.h"
#include "query/hybrid.h"
#include "query/keyword_index.h"
#include "query/relation.h"
#include "query/structured_query.h"
#include "text/document.h"

namespace structura::query {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtoull(s, nullptr, 10);
}

/// Shared worker pool for every parallel run in this binary (8 workers:
/// more chains than cores on any CI box, which is exactly the
/// interleaving we want to stress).
ThreadPool& Pool() {
  static ThreadPool pool(8);
  return pool;
}

ExecutorOptions Opts(size_t parallelism, size_t morsel_rows) {
  ExecutorOptions o;
  o.parallelism = parallelism;
  o.morsel_rows = morsel_rows;
  o.pool = parallelism > 1 ? &Pool() : nullptr;
  return o;
}

/// Bit-exact value equality: same type AND same representation. Doubles
/// are compared as bit patterns so "close" never passes for "equal".
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case rdbms::ValueType::kNull:
      return true;
    case rdbms::ValueType::kInt:
      return a.as_int() == b.as_int();
    case rdbms::ValueType::kDouble: {
      double da = a.as_double(), db = b.as_double();
      return std::memcmp(&da, &db, sizeof(double)) == 0;
    }
    case rdbms::ValueType::kString:
      return a.as_string() == b.as_string();
  }
  return false;
}

void ExpectIdentical(const Relation& serial, const Relation& parallel,
                     const std::string& what) {
  ASSERT_EQ(serial.columns(), parallel.columns()) << what;
  ASSERT_EQ(serial.size(), parallel.size()) << what;
  for (size_t i = 0; i < serial.size(); ++i) {
    const rdbms::Row& a = serial.rows()[i];
    const rdbms::Row& b = parallel.rows()[i];
    ASSERT_EQ(a.size(), b.size()) << what << " row " << i;
    for (size_t j = 0; j < a.size(); ++j) {
      ASSERT_TRUE(SameValue(a[j], b[j]))
          << what << " row " << i << " col " << j << ": serial="
          << a[j].ToString() << " parallel=" << b[j].ToString();
    }
  }
}

/// A relation whose float column has wildly mixed magnitudes, so any
/// reordering of the aggregate reduction tree changes the result bits.
Relation RandomRelation(std::mt19937_64& rng, size_t max_rows) {
  Relation rel({"g", "s", "x", "y"});
  std::uniform_int_distribution<size_t> rows_dist(0, max_rows);
  std::uniform_int_distribution<int> group_dist(0, 7);
  std::uniform_int_distribution<int64_t> int_dist(-1000, 1000);
  std::uniform_real_distribution<double> mag_dist(-9.0, 9.0);
  std::uniform_real_distribution<double> mant_dist(-1.0, 1.0);
  std::uniform_int_distribution<int> null_dist(0, 19);
  size_t n = rows_dist(rng);
  for (size_t i = 0; i < n; ++i) {
    Value y = null_dist(rng) == 0
                  ? Value::Null()
                  : Value::Double(mant_dist(rng) *
                                  std::pow(10.0, mag_dist(rng)));
    rel.Append({Value::Str("g" + std::to_string(group_dist(rng))),
                Value::Str("s" + std::to_string(int_dist(rng))),
                Value::Int(int_dist(rng)), y})
        .ok();
  }
  return rel;
}

std::vector<Condition> RandomConditions(std::mt19937_64& rng) {
  std::vector<Condition> conds;
  std::uniform_int_distribution<int> n_dist(1, 2);
  std::uniform_int_distribution<int64_t> lit_dist(-800, 800);
  std::uniform_int_distribution<int> op_dist(0, 3);
  int n = n_dist(rng);
  for (int i = 0; i < n; ++i) {
    static const CompareOp kOps[] = {CompareOp::kGt, CompareOp::kLe,
                                     CompareOp::kNe, CompareOp::kGe};
    conds.push_back(Condition{"x", kOps[op_dist(rng)],
                              Value::Int(lit_dist(rng))});
  }
  return conds;
}

std::vector<AggSpec> AllAggs() {
  return {AggSpec{AggFn::kCount, "", "cnt"},
          AggSpec{AggFn::kSum, "y", "sum_y"},
          AggSpec{AggFn::kAvg, "y", "avg_y"},
          AggSpec{AggFn::kMin, "x", "min_x"},
          AggSpec{AggFn::kMax, "s", "max_s"}};
}

/// Build side for the join cases: one row per group of RandomRelation.
Relation GroupTags() {
  Relation right({"g", "tag"});
  for (int i = 0; i < 8; ++i) {
    right.Append({Value::Str("g" + std::to_string(i)),
                  Value::Str("tag" + std::to_string(i))})
        .ok();
  }
  return right;
}

/// Runs one operator pipeline at the given options and returns every
/// intermediate, so mismatches localize to the operator that diverged.
struct PipelineOut {
  Relation filtered;
  Relation projected;
  Relation joined;
  Relation aggregated;
};

Result<PipelineOut> RunPipeline(const Relation& in, const Relation& right,
                                const std::vector<Condition>& conds,
                                const Interrupt& intr,
                                const ExecutorOptions& opts) {
  PipelineOut out;
  STRUCTURA_ASSIGN_OR_RETURN(out.filtered, Filter(in, conds, intr, opts));
  STRUCTURA_ASSIGN_OR_RETURN(out.projected,
                             Project(in, {"g", "y"}, intr, opts));
  STRUCTURA_ASSIGN_OR_RETURN(
      out.joined, HashJoin(in, right, "g", "g", "r_", intr, opts));
  STRUCTURA_ASSIGN_OR_RETURN(
      out.aggregated, Aggregate(in, {"g"}, AllAggs(), intr, opts));
  return out;
}

TEST(ParallelExecTest, OperatorsMatchSerialAtEveryParallelism) {
  std::mt19937_64 rng(4242);
  Relation in = RandomRelation(rng, 3000);
  Relation right = GroupTags();
  std::vector<Condition> conds = RandomConditions(rng);
  for (size_t morsel : {size_t{64}, size_t{1024}}) {
    auto serial = RunPipeline(in, right, conds, Interrupt{},
                              Opts(1, morsel));
    ASSERT_TRUE(serial.ok());
    for (size_t par : {size_t{2}, size_t{8}}) {
      auto parallel = RunPipeline(in, right, conds, Interrupt{},
                                  Opts(par, morsel));
      ASSERT_TRUE(parallel.ok());
      std::string tag =
          "par=" + std::to_string(par) + " morsel=" + std::to_string(morsel);
      ExpectIdentical(serial->filtered, parallel->filtered,
                      "filter " + tag);
      ExpectIdentical(serial->projected, parallel->projected,
                      "project " + tag);
      ExpectIdentical(serial->joined, parallel->joined, "join " + tag);
      ExpectIdentical(serial->aggregated, parallel->aggregated,
                      "aggregate " + tag);
    }
  }
}

TEST(ParallelExecTest, StructuredQueryMatchesSerial) {
  std::mt19937_64 rng(7);
  Relation in = RandomRelation(rng, 2000);
  StructuredQuery q;
  q.source_view = "v";
  q.where = {Condition{"x", CompareOp::kGt, Value::Int(-200)}};
  q.group_by = {"g"};
  q.aggregates = AllAggs();
  q.order_by = "g";
  auto serial = ExecuteStructuredQuery(q, in, Interrupt{}, Opts(1, 256));
  ASSERT_TRUE(serial.ok());
  for (size_t par : {size_t{2}, size_t{8}}) {
    auto parallel =
        ExecuteStructuredQuery(q, in, Interrupt{}, Opts(par, 256));
    ASSERT_TRUE(parallel.ok());
    ExpectIdentical(*serial, *parallel,
                    "structured par=" + std::to_string(par));
  }
}

/// Exactly `rows` random rows. Interrupt tests use two sizes: 4096 rows
/// cross many polls on every path (the serial Filter and Project loops
/// poll before the first row and every 512 rows after it, the morsel
/// paths before each morsel), and 10 rows, where the first poll is the
/// only one.
Relation SizedRelation(size_t rows) {
  std::mt19937_64 rng(3);
  Relation rel;
  do {
    rel = RandomRelation(rng, rows * 2);
  } while (rel.size() < rows);
  return Limit(rel, rows);
}

/// Asserts that `intr` refuses with `code` on every path: Filter,
/// Project, Aggregate and HashJoin at parallelism 1, 2 and 8 over 4096
/// and 10 rows, EXTRACT through ExecutePlan at parallelism 1 and 8, and
/// query::HybridSearch.
void ExpectRefusedOnEveryPath(const Interrupt& intr, StatusCode code) {
  Relation right = GroupTags();
  for (size_t rows : {size_t{4096}, size_t{10}}) {
    Relation in = SizedRelation(rows);
    for (size_t par : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE("rows=" + std::to_string(rows) +
                   " par=" + std::to_string(par));
      ExecutorOptions opts = Opts(par, 64);
      auto f = Filter(in, {Condition{"x", CompareOp::kGt, Value::Int(0)}},
                      intr, opts);
      ASSERT_FALSE(f.ok()) << "filter";
      EXPECT_EQ(f.status().code(), code);
      auto p = Project(in, {"g", "x"}, intr, opts);
      ASSERT_FALSE(p.ok()) << "project";
      EXPECT_EQ(p.status().code(), code);
      auto a = Aggregate(in, {"g"}, AllAggs(), intr, opts);
      ASSERT_FALSE(a.ok()) << "aggregate";
      EXPECT_EQ(a.status().code(), code);
      auto j = HashJoin(in, right, "g", "g", "r_", intr, opts);
      ASSERT_FALSE(j.ok()) << "join";
      EXPECT_EQ(j.status().code(), code);
    }
  }

  corpus::CorpusOptions copts;
  copts.num_cities = 6;
  copts.num_people = 4;
  copts.num_companies = 2;
  copts.seed = 5;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(copts, &docs, &truth);

  // EXTRACT infobox FROM pages.
  ie::ExtractorPtr infobox = ie::MakeInfoboxExtractor();
  lang::PlanNode plan;
  plan.type = lang::PlanNode::Type::kExtract;
  plan.extractors = {infobox->name()};
  plan.children.push_back(std::make_unique<lang::PlanNode>());
  plan.children.back()->type = lang::PlanNode::Type::kScanDocs;
  for (size_t par : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("extract par=" + std::to_string(par));
    lang::ExecutionContext ctx;
    ctx.docs = &docs;
    ctx.extractors[infobox->name()] = infobox.get();
    ctx.exec = Opts(par, 64);
    ctx.interrupt = intr;
    auto e = lang::ExecutePlan(plan, &ctx);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.status().code(), code);
    EXPECT_EQ(ctx.extractor_runs, 0u);
  }

  KeywordIndex index;
  for (const text::Document& d : docs.docs) index.AddDocument(d);
  index.Finalize();
  Relation facts({"doc", "attribute", "value"});
  facts.Append({Value::Int(static_cast<int64_t>(docs.docs[0].id)),
                Value::Str("population"), Value::Str("1000")})
      .ok();
  HybridQuery hq;
  hq.keywords = "city";
  hq.structured = {
      Condition{"attribute", CompareOp::kEq, Value::Str("population")}};
  auto h = HybridSearch(index, facts, hq, 5, intr);
  ASSERT_FALSE(h.ok()) << "hybrid";
  EXPECT_EQ(h.status().code(), code);
}

TEST(ParallelExecTest, ExpiredDeadlineRefusesOnEveryPath) {
  Interrupt expired;
  expired.deadline = Deadline::AfterNanos(-1);
  ExpectRefusedOnEveryPath(expired, StatusCode::kDeadlineExceeded);
}

TEST(ParallelExecTest, CancellationRefusesOnEveryPath) {
  CancellationSource source;
  source.Cancel();
  Interrupt cancelled;
  cancelled.token = source.token();
  ExpectRefusedOnEveryPath(cancelled, StatusCode::kCancelled);
}

TEST(ParallelExecTest, EndToEndSystemMatchesSerial) {
  // Full SDL pipeline (EXTRACT included) through two Systems that
  // differ only in query_parallelism.
  corpus::CorpusOptions copts;
  copts.num_cities = 30;
  copts.num_people = 20;
  copts.num_companies = 10;
  copts.seed = 99;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(copts, &docs, &truth);
  const char* kProgram =
      "CREATE VIEW facts AS EXTRACT infobox, temp_sentence FROM pages;"
      "SELECT subject, COUNT(*) AS n, AVG(value) AS avg_v FROM facts "
      "WHERE attribute LIKE \"temp_%\" GROUP BY subject ORDER BY subject;";
  auto run = [&](size_t parallelism) {
    core::System::Options so;
    so.query_parallelism = parallelism;
    so.query_morsel_rows = 128;
    so.query_cache_entries = 0;  // compare executions, not cache copies
    auto sys = core::System::Create(so);
    EXPECT_TRUE(sys.ok());
    (*sys)->RegisterStandardOperators();
    EXPECT_TRUE((*sys)->IngestCrawl(docs).ok());
    auto results = (*sys)->RunProgram(kProgram);
    EXPECT_TRUE(results.ok());
    return results->back().relation;
  };
  Relation serial = run(1);
  Relation parallel = run(8);
  ExpectIdentical(serial, parallel, "end-to-end");
}

// --------------------------------------------------------------- sweep

/// Seeded random-plan differential sweep (ctest -L parallel). Each
/// iteration draws a fresh relation + plan and checks serial ==
/// parallel at 2 and 8 workers; a sprinkling of iterations run under a
/// tight randomized deadline, where the contract is "identical result
/// or clean deadline refusal".
TEST(ParallelSweepTest, RandomPlanDifferential) {
  const uint64_t base_seed = EnvU64("STRUCTURA_PARALLEL_SEED", 20260808);
  const uint64_t iters = EnvU64("STRUCTURA_PARALLEL_ITERS", 1000);
  Relation right = GroupTags();
  static const size_t kMorsels[] = {1, 7, 64, 1024};
  for (uint64_t iter = 0; iter < iters; ++iter) {
    uint64_t seed = base_seed + iter;
    SCOPED_TRACE("STRUCTURA_PARALLEL_SEED=" + std::to_string(seed) +
                 " (iteration " + std::to_string(iter) + ")");
    std::mt19937_64 rng(seed);
    Relation in = RandomRelation(rng, 600);
    std::vector<Condition> conds = RandomConditions(rng);
    size_t morsel = kMorsels[rng() % 4];
    bool race_deadline = iter % 7 == 3;
    Interrupt intr;
    if (race_deadline) {
      intr.deadline = Deadline::AfterMicros(rng() % 200);
    }
    auto serial = RunPipeline(in, right, conds, Interrupt{},
                              Opts(1, morsel));
    ASSERT_TRUE(serial.ok());
    for (size_t par : {size_t{2}, size_t{8}}) {
      auto parallel =
          RunPipeline(in, right, conds, intr, Opts(par, morsel));
      if (!parallel.ok()) {
        // Only the raced deadline may refuse, and only cleanly.
        ASSERT_TRUE(race_deadline) << parallel.status().ToString();
        EXPECT_EQ(parallel.status().code(),
                  StatusCode::kDeadlineExceeded);
        continue;
      }
      std::string tag = "par=" + std::to_string(par);
      ExpectIdentical(serial->filtered, parallel->filtered,
                      "filter " + tag);
      ExpectIdentical(serial->projected, parallel->projected,
                      "project " + tag);
      ExpectIdentical(serial->joined, parallel->joined, "join " + tag);
      ExpectIdentical(serial->aggregated, parallel->aggregated,
                      "aggregate " + tag);
    }
  }
}

}  // namespace
}  // namespace structura::query
