// QueryBatch: a heterogeneous batch against one PreparedGraph must return,
// in submission order, exactly what issuing each query directly would have
// returned — at every concurrency level, with the worker cap restored.
#include "clique/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "clique/api.hpp"
#include "clique/engine.hpp"
#include "clique/max_clique.hpp"
#include "graph/gen/generators.hpp"
#include "parallel/parallel.hpp"

namespace c3 {
namespace {

Query make(QueryKind kind, int k = 0, int kmax = 0) {
  Query q;
  q.kind = kind;
  q.k = k;
  q.kmax = kmax;
  return q;
}

TEST(QueryBatch, MixedBatchMatchesDirectQueries) {
  const Graph g = social_like(300, 2400, 0.4, 19);
  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;
  const PreparedGraph engine(g, opts);

  // Direct answers.
  const count_t c3 = engine.count(3).count;
  const count_t c4 = engine.count(4).count;
  const count_t c5 = engine.count(5).count;
  const node_t omega = engine.max_clique_size();
  const CliqueSpectrum spec = engine.spectrum();
  const std::vector<count_t> pv4 = engine.per_vertex_counts(4);

  for (const int concurrency : {0, 1, 2, 4}) {
    QueryBatch batch(engine);
    EXPECT_EQ(batch.add(make(QueryKind::Count, 3)), 0);
    EXPECT_EQ(batch.add(make(QueryKind::Count, 4)), 1);
    EXPECT_EQ(batch.add(make(QueryKind::HasClique, static_cast<int>(omega))), 2);
    EXPECT_EQ(batch.add(make(QueryKind::HasClique, static_cast<int>(omega) + 1)), 3);
    EXPECT_EQ(batch.add(make(QueryKind::FindClique, 4)), 4);
    EXPECT_EQ(batch.add(make(QueryKind::Spectrum)), 5);
    EXPECT_EQ(batch.add(make(QueryKind::MaxClique)), 6);
    EXPECT_EQ(batch.add(make(QueryKind::PerVertexCounts, 4)), 7);
    EXPECT_EQ(batch.add(make(QueryKind::Count, 5)), 8);
    ASSERT_EQ(batch.size(), 9u);

    const int cap_before = num_workers();
    const std::vector<Answer> results = batch.answers(concurrency);
    EXPECT_EQ(num_workers(), cap_before) << "worker cap not restored";
    ASSERT_EQ(results.size(), 9u);

    EXPECT_EQ(results[0].count, c3);
    EXPECT_EQ(results[1].count, c4);
    EXPECT_TRUE(results[2].found);
    EXPECT_FALSE(results[3].found);
    EXPECT_TRUE(results[4].found);
    ASSERT_EQ(results[4].witness.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = i + 1; j < 4; ++j) {
        EXPECT_TRUE(g.has_edge(results[4].witness[i], results[4].witness[j]));
      }
    }
    EXPECT_EQ(results[5].spectrum.counts, spec.counts);
    EXPECT_EQ(results[5].omega, spec.omega);
    EXPECT_EQ(results[6].omega, omega);
    EXPECT_EQ(results[6].witness.size(), static_cast<std::size_t>(omega));
    EXPECT_EQ(results[7].per_counts, pv4);
    EXPECT_EQ(results[8].count, c5);

    // Kinds and k echo the submission.
    EXPECT_EQ(results[0].kind, QueryKind::Count);
    EXPECT_EQ(results[0].k, 3);
    EXPECT_EQ(results[6].kind, QueryKind::MaxClique);
  }
}

TEST(QueryBatch, BatchPaysPreparationOnceUpFront) {
  const Graph g = erdos_renyi(200, 1500, 7);
  const PreparedGraph engine(g, {});
  QueryBatch batch(engine);
  for (int k = 3; k <= 6; ++k) (void)batch.add(make(QueryKind::Count, k));
  const auto results = batch.answers();
  // answers() forces prepare() before the first query, so no query reports
  // preparation cost.
  for (const Answer& r : results) EXPECT_EQ(r.stats.preprocess_seconds, 0.0);
  EXPECT_EQ(engine.artifacts_built(), 2);
}

TEST(QueryBatch, TrivialOnlyBatchBuildsNoArtifacts) {
  const Graph g = erdos_renyi(100, 700, 3);
  const PreparedGraph engine(g, {});
  QueryBatch batch(engine);
  (void)batch.add(make(QueryKind::Count, 1));
  (void)batch.add(make(QueryKind::Count, 2));
  (void)batch.add(make(QueryKind::Spectrum, 0, 2));
  const auto results = batch.answers(2);
  EXPECT_EQ(results[0].count, 100u);
  EXPECT_EQ(results[1].count, 700u);
  EXPECT_EQ(results[2].spectrum.omega, 2u);
  // Every answer comes from the graph alone; preparation must not run.
  EXPECT_EQ(engine.artifacts_built(), 0);
}

TEST(QueryBatch, BruteForceHeavyQueriesPrepareUpFront) {
  // BruteForce's prepare() builds nothing, but max-clique queries consult
  // the degeneracy upper bound — answers() must force it up front so the query
  // itself still pays no preparation.
  const Graph g = erdos_renyi(80, 400, 13);
  CliqueOptions opts;
  opts.algorithm = Algorithm::BruteForce;
  const PreparedGraph engine(g, opts);
  QueryBatch batch(engine);
  (void)batch.add(make(QueryKind::MaxClique));
  (void)batch.add(make(QueryKind::Count, 3));
  const auto results = batch.answers(2);
  EXPECT_EQ(results[0].omega, max_clique_size(g));
  EXPECT_EQ(results[1].count, count_cliques(g, 3, opts).count);
  // Exactly the one up-front degeneracy build — nothing during the queries.
  EXPECT_EQ(engine.artifacts_built(), 1);
}

TEST(QueryBatch, RunIsRepeatable) {
  const Graph g = erdos_renyi(150, 1100, 3);
  const PreparedGraph engine(g, {});
  QueryBatch batch(engine);
  (void)batch.add(make(QueryKind::Count, 4));
  (void)batch.add(make(QueryKind::MaxClique));
  const auto first = batch.answers();
  const auto second = batch.answers();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first[0].count, second[0].count);
  EXPECT_EQ(first[1].omega, second[1].omega);
}

TEST(QueryBatch, ConcurrentBatchesRestoreWorkerCap) {
  // Two batches running their concurrent phases at once must not interleave
  // the global save/split/restore of the worker cap (pre-fix, B could save
  // A's split value and "restore" the process to it permanently).
  const Graph g = erdos_renyi(150, 1100, 21);
  const PreparedGraph e1(g, {});
  const PreparedGraph e2(g, {});
  const count_t expect4 = e1.count(4).count;
  const int before = num_workers();

  auto run_batch = [&](const PreparedGraph& engine, count_t& out) {
    QueryBatch batch(engine);
    for (int k = 3; k <= 6; ++k) (void)batch.add(make(QueryKind::Count, k));
    out = batch.answers(4)[1].count;  // k = 4
  };
  count_t a_count = 0, b_count = 0;
  std::thread a([&] { run_batch(e1, a_count); });
  std::thread b([&] { run_batch(e2, b_count); });
  a.join();
  b.join();

  EXPECT_EQ(num_workers(), before) << "worker cap corrupted by racing batches";
  EXPECT_EQ(a_count, expect4);
  EXPECT_EQ(b_count, expect4);
}

TEST(QueryBatch, EmptyBatchAndEmptyGraph) {
  const Graph g = erdos_renyi(50, 200, 5);
  const PreparedGraph engine(g, {});
  EXPECT_TRUE(QueryBatch(engine).answers().empty());

  const Graph empty;
  const PreparedGraph none(empty, {});
  QueryBatch batch(none);
  (void)batch.add(make(QueryKind::Count, 3));
  (void)batch.add(make(QueryKind::MaxClique));
  (void)batch.add(make(QueryKind::Spectrum));
  const auto results = batch.answers(4);
  EXPECT_EQ(results[0].count, 0u);
  EXPECT_EQ(results[1].omega, 0u);
  EXPECT_FALSE(results[1].found);
  EXPECT_EQ(results[2].spectrum.omega, 0u);
}

TEST(QueryBatch, GlobalWorkerCountUntouchedThroughoutRun) {
  // Regression: the pre-Query executor split the *global* worker cap across
  // its threads (set_num_workers save/split/restore), so an external caller
  // could observe — or race — the temporarily reduced value. The rebuilt
  // executor caps per thread; an observer sampling continuously during the
  // batch must never see the global count move.
  const Graph g = social_like(250, 2000, 0.4, 23);
  const PreparedGraph engine(g, {});
  engine.prepare();
  const int before = num_workers();

  std::atomic<bool> watching{true};
  std::atomic<bool> saw_change{false};
  std::thread observer([&] {
    while (watching.load(std::memory_order_relaxed)) {
      if (num_workers() != before) saw_change.store(true, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  QueryBatch batch(engine);
  for (int rep = 0; rep < 3; ++rep) {
    for (int k = 3; k <= 5; ++k) (void)batch.add(make(QueryKind::Count, k));
  }
  const std::vector<Answer> results = batch.answers(4);
  watching.store(false, std::memory_order_relaxed);
  observer.join();

  EXPECT_FALSE(saw_change.load()) << "batch split leaked into the global worker count";
  EXPECT_EQ(num_workers(), before);
  for (const Answer& r : results) EXPECT_EQ(r.count, engine.count(r.k).count);
}

TEST(QueryBatch, PerQueryWorkerCapsRespected) {
  const Graph g = erdos_renyi(180, 1400, 27);
  const PreparedGraph engine(g, {});
  const count_t c4 = engine.count(4).count;
  const int before = num_workers();

  QueryBatch batch(engine);
  for (int i = 0; i < 6; ++i) {
    Query q;
    q.kind = QueryKind::Count;
    q.k = 4;
    q.opts.max_workers = 1 + (i % 3);  // varying per-query caps
    (void)batch.add(std::move(q));
  }
  const std::vector<Answer> answers = batch.answers(3);
  for (const Answer& a : answers) EXPECT_EQ(a.count, c4);
  EXPECT_EQ(num_workers(), before);
}

TEST(QueryBatch, CostModelSendsLargeKToTheSequentialPhase) {
  // Not a placement assertion (that is internal) — a behavior one: a batch
  // mixing tiny probes with a huge-k count must return correct results at
  // every concurrency, with the heavy query keeping its answer identical.
  const Graph g = social_like(300, 2600, 0.5, 29);
  const PreparedGraph engine(g, {});
  engine.prepare();
  const int big_k = std::max(3, static_cast<int>(engine.clique_number_upper_bound()) - 1);
  const count_t big = engine.count(big_k).count;
  const count_t small = engine.count(3).count;

  for (const int concurrency : {0, 2}) {
    QueryBatch batch(engine);
    (void)batch.add(make(QueryKind::Count, 3));
    (void)batch.add(make(QueryKind::Count, big_k));
    (void)batch.add(make(QueryKind::Count, 3));
    const auto results = batch.answers(concurrency);
    EXPECT_EQ(results[0].count, small);
    EXPECT_EQ(results[1].count, big);
    EXPECT_EQ(results[2].count, small);
  }
}

TEST(QueryBatch, AnswersEchoTypedQueries) {
  const Graph g = erdos_renyi(120, 800, 33);
  const PreparedGraph engine(g, {});
  QueryBatch batch(engine);
  Query list;
  list.kind = QueryKind::List;
  list.k = 3;
  list.opts.result_limit = 4;
  (void)batch.add(list);
  (void)batch.add(make(QueryKind::Count, 3));

  const std::vector<Answer> answers = batch.answers();
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0].kind, QueryKind::List);
  EXPECT_LE(answers[0].cliques.size(), 4u);
  EXPECT_EQ(answers[1].count, engine.count(3).count);
  // queries() exposes the typed submissions for tooling.
  EXPECT_EQ(batch.queries()[0].opts.result_limit, 4u);
}

}  // namespace
}  // namespace c3
