// The typed Query/Answer surface: text round-tripping (parse_query /
// format_query / format_answer), precise parse errors naming the offending
// token, run(Query) equivalence with every named method across all
// algorithms, and the per-query resource controls (worker caps, result
// limits, budgets, cancel tokens — including budgets and cancels that cut
// a search with no emissions).
#include "clique/query.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "clique/api.hpp"
#include "clique/combinatorics.hpp"
#include "clique/engine.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "parallel/parallel.hpp"
#include "util/timer.hpp"

namespace c3 {
namespace {

// ------------------------------------------------------------ text round trip

TEST(QueryText, RoundTripsEveryKindAndOption) {
  // A fuzz-ish table: every kind crossed with representative option
  // combinations must survive parse(format(q)) exactly.
  const std::vector<QueryKind> kinds = {
      QueryKind::Count,           QueryKind::List,          QueryKind::HasClique,
      QueryKind::FindClique,      QueryKind::PerVertexCounts,
      QueryKind::PerEdgeCounts,   QueryKind::Spectrum,      QueryKind::MaxClique,
  };
  std::vector<QueryOptions> option_sets;
  option_sets.emplace_back();  // defaults
  {
    QueryOptions o;
    o.max_workers = 2;
    option_sets.push_back(o);
  }
  {
    QueryOptions o;
    o.result_limit = 100;
    o.budget_seconds = 0.25;
    option_sets.push_back(o);
  }
  {
    QueryOptions o;
    o.want_witness = false;
    o.max_workers = 7;
    o.budget_seconds = 1.5;
    option_sets.push_back(o);
  }

  for (const QueryKind kind : kinds) {
    for (const QueryOptions& opts : option_sets) {
      for (const int size : {1, 3, 9}) {
        Query q;
        q.kind = kind;
        q.opts = opts;
        switch (kind) {
          case QueryKind::Spectrum:
            q.kmax = size - 1;  // exercises kmax = 0 (omitted) too
            break;
          case QueryKind::MaxClique:
            break;
          default:
            q.k = size;
        }
        const std::string text = format_query(q);
        const Query back = parse_query(text);
        EXPECT_TRUE(back == q) << "round trip changed '" << text << "' into '"
                               << format_query(back) << "'";
      }
    }
  }
}

TEST(QueryText, ParsesTheLegacyBatchGrammar) {
  // Every line c3tool batch accepted before the typed surface must still
  // parse to the same query.
  EXPECT_TRUE(parse_query("count 5") == (Query{QueryKind::Count, 5, 0, {}}));
  EXPECT_TRUE(parse_query("hasclique 4") == (Query{QueryKind::HasClique, 4, 0, {}}));
  EXPECT_TRUE(parse_query("findclique 3") == (Query{QueryKind::FindClique, 3, 0, {}}));
  EXPECT_TRUE(parse_query("vertexcounts 4") == (Query{QueryKind::PerVertexCounts, 4, 0, {}}));
  EXPECT_TRUE(parse_query("edgecounts 3") == (Query{QueryKind::PerEdgeCounts, 3, 0, {}}));
  EXPECT_TRUE(parse_query("spectrum") == (Query{QueryKind::Spectrum, 0, 0, {}}));
  EXPECT_TRUE(parse_query("spectrum 6") == (Query{QueryKind::Spectrum, 0, 6, {}}));
  EXPECT_TRUE(parse_query("maxclique") == (Query{QueryKind::MaxClique, 0, 0, {}}));
  EXPECT_TRUE(parse_query("  count 5  # trailing comment") ==
              (Query{QueryKind::Count, 5, 0, {}}));
}

/// The parse must fail and the error must name the offending token.
void expect_parse_error(const std::string& line, const std::string& expected_token) {
  try {
    (void)parse_query(line);
    FAIL() << "expected '" << line << "' to be rejected";
  } catch (const QueryParseError& e) {
    EXPECT_EQ(e.token(), expected_token) << "for line '" << line << "': " << e.what();
    EXPECT_NE(std::string(e.what()).find(expected_token), std::string::npos)
        << "message must name the token: " << e.what();
  }
}

TEST(QueryText, BadInputsNameTheOffendingToken) {
  expect_parse_error("cuont 5", "cuont");                 // typo'd kind
  expect_parse_error("count x7", "x7");                   // non-numeric k
  expect_parse_error("count -3", "-3");                   // negative k
  expect_parse_error("count 0", "0");                     // k < 1
  expect_parse_error("count 99999999999999999999", "99999999999999999999");  // overflow
  expect_parse_error("count 5 extra", "extra");           // trailing garbage
  expect_parse_error("spectrum 4.5", "4.5");              // fractional kmax
  expect_parse_error("spectrum 99999999999", "99999999999");  // kmax out of range
  expect_parse_error("count 5 workers=9999999", "9999999");   // workers out of range
  expect_parse_error("maxclique 5", "5");                 // maxclique takes no k
  expect_parse_error("count 5 frobs=1", "frobs=1");       // unknown option
  expect_parse_error("count 5 workers=abc", "abc");       // bad option value
  expect_parse_error("count 5 budget=-1", "-1");          // negative budget
  expect_parse_error("count 5 budget=nanx", "nanx");      // junk double
  expect_parse_error("count 5 witness=2", "witness=2");   // witness not 0/1
  expect_parse_error("list", "");                         // missing k
}

TEST(QueryText, MaxCliqueRejectsBareK) {
  // `maxclique 5` is the classic typo for `hasclique 5`; it must not
  // silently run a (far more expensive) different query.
  EXPECT_THROW((void)parse_query("maxclique 5"), QueryParseError);
}

TEST(QueryText, ParseQueryFileSkipsBlanksAndNamesBadLines) {
  std::istringstream good("# header comment\n"
                          "\n"
                          "count 3\n"
                          "  spectrum 4   # inline comment\n"
                          "maxclique\n");
  const std::vector<Query> queries = parse_query_file(good);
  ASSERT_EQ(queries.size(), 3u);
  EXPECT_EQ(queries[0].kind, QueryKind::Count);
  EXPECT_EQ(queries[1].kind, QueryKind::Spectrum);
  EXPECT_EQ(queries[1].kmax, 4);
  EXPECT_EQ(queries[2].kind, QueryKind::MaxClique);

  std::istringstream bad("count 3\n\ncuont 4\n");
  try {
    (void)parse_query_file(bad);
    FAIL() << "expected the bad line to be rejected";
  } catch (const QueryParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
    EXPECT_EQ(e.token(), "cuont");
  }
}

TEST(QueryText, RoundTripSurvivesACancelToken) {
  // A cancel token has no text form; it is execution state, not part of the
  // question. format_query must omit it and parse(format(q)) == q must hold
  // with the token set (the old equality compared the shared_ptr by
  // identity, so this round trip used to fail).
  Query q;
  q.kind = QueryKind::Count;
  q.k = 4;
  q.opts.max_workers = 3;
  q.opts.cancel = std::make_shared<std::atomic<bool>>(false);
  const std::string text = format_query(q);
  EXPECT_EQ(text.find("cancel"), std::string::npos) << text;
  const Query back = parse_query(text);
  EXPECT_TRUE(back == q) << "round trip changed '" << text << "'";

  // Two queries differing only in their token (set vs unset, or two distinct
  // tokens with the same value) ask the same question.
  Query other = q;
  other.opts.cancel = std::make_shared<std::atomic<bool>>(false);
  EXPECT_TRUE(q == other);
  other.opts.cancel.reset();
  EXPECT_TRUE(q == other);
}

TEST(QueryText, CommentsGlueToTokensAndCrlfIsTolerated) {
  // '#' starts a comment even with no whitespace before it — the comment
  // must not fuse into the preceding token.
  EXPECT_TRUE(parse_query("count 4#glued") == (Query{QueryKind::Count, 4, 0, {}}));
  EXPECT_TRUE(parse_query("spectrum#x") == (Query{QueryKind::Spectrum, 0, 0, {}}));
  expect_parse_error("count#4", "");  // the comment ate K: missing-K error

  // Lines arriving from CRLF files (or raw TCP) keep their '\r'; it must
  // parse as whitespace, not leak into the last token.
  EXPECT_TRUE(parse_query("count 4\r") == (Query{QueryKind::Count, 4, 0, {}}));
  Query capped{QueryKind::Count, 4, 0, {}};
  capped.opts.max_workers = 2;
  EXPECT_TRUE(parse_query("count 4 workers=2\r") == capped);
  std::istringstream crlf("count 3\r\n\r\nspectrum 4\r\n");
  const std::vector<Query> queries = parse_query_file(crlf);
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0].k, 3);
  EXPECT_EQ(queries[1].kmax, 4);
}

TEST(QueryText, ExplicitDefaultOptionsParseAndRoundTrip) {
  // workers=0 (no cap) and limit=0 (unlimited) are the defaults spelled out
  // explicitly; both must parse, and formatting then omits them.
  const Query workers0 = parse_query("count 4 workers=0");
  EXPECT_EQ(workers0.opts.max_workers, 0);
  EXPECT_EQ(format_query(workers0), "count 4");
  const Query limit0 = parse_query("list 3 limit=0");
  EXPECT_EQ(limit0.opts.result_limit, 0u);
  EXPECT_EQ(format_query(limit0), "list 3");
}

TEST(QueryText, OverRangeCliqueSizesAreRejected) {
  // k fits an int and is capped at 2^30; both the fits-in-long-long and the
  // beyond-long-long spellings must fail naming the token.
  expect_parse_error("count 2000000000", "2000000000");
  expect_parse_error("hasclique 99999999999999999999", "99999999999999999999");
}

TEST(QueryText, CanonicalQuestionStripsExecutionOnlyOptions) {
  // canonical_question keeps what shapes the answer (kind, k/kmax, limit,
  // witness) and zeroes what only shapes execution (workers, budget,
  // cancel) — the normalization the answer cache keys on.
  Query q;
  q.kind = QueryKind::List;
  q.k = 4;
  q.opts.max_workers = 8;
  q.opts.budget_seconds = 2.5;
  q.opts.result_limit = 10;
  q.opts.want_witness = false;
  q.opts.cancel = std::make_shared<std::atomic<bool>>(false);

  const Query canon = canonical_question(q);
  EXPECT_EQ(canon.opts.max_workers, 0);
  EXPECT_EQ(canon.opts.budget_seconds, 0.0);
  EXPECT_EQ(canon.opts.cancel, nullptr);
  EXPECT_EQ(canon.opts.result_limit, 10u);
  EXPECT_FALSE(canon.opts.want_witness);
  EXPECT_EQ(format_query(canon), "list 4 limit=10 witness=0");

  Query same = q;
  same.opts.max_workers = 1;
  same.opts.budget_seconds = 0.0;
  same.opts.cancel.reset();
  EXPECT_TRUE(same_question(q, same));
  EXPECT_TRUE(canonical_question(q) == canonical_question(same));

  Query different = q;
  different.opts.result_limit = 11;
  EXPECT_FALSE(same_question(q, different));
  different = q;
  different.k = 5;
  EXPECT_FALSE(same_question(q, different));
}

TEST(QueryText, FormatAnswerRendersEveryKind) {
  Answer a;
  a.kind = QueryKind::Count;
  a.k = 5;
  a.count = 42;
  EXPECT_EQ(format_answer(a), "count 5: 42 cliques");
  a.truncated = true;
  EXPECT_EQ(format_answer(a), "count 5: 42 cliques [truncated]");

  Answer has;
  has.kind = QueryKind::HasClique;
  has.k = 3;
  has.found = true;
  EXPECT_EQ(format_answer(has), "hasclique 3: yes");

  Answer find;
  find.kind = QueryKind::FindClique;
  find.k = 3;
  find.found = true;
  find.witness = {4, 7, 9};
  EXPECT_EQ(format_answer(find), "findclique 3: 4 7 9");

  Answer spec;
  spec.kind = QueryKind::Spectrum;
  spec.spectrum.omega = 3;
  spec.spectrum.counts = {0, 4, 5, 1};
  EXPECT_EQ(format_answer(spec), "spectrum: omega 3, counts 0 4 5 1");

  Answer mc;
  mc.kind = QueryKind::MaxClique;
  mc.omega = 3;
  mc.witness = {1, 2, 3};
  EXPECT_EQ(format_answer(mc), "maxclique: omega 3, witness 1 2 3");
}

// -------------------------------------------- run(Query) vs named methods

std::vector<Algorithm> all_algorithms() {
  return {Algorithm::C3List, Algorithm::C3ListCD, Algorithm::Hybrid,
          Algorithm::KCList, Algorithm::ArbCount, Algorithm::BruteForce};
}

Query make(QueryKind kind, int k = 0, int kmax = 0) {
  Query q;
  q.kind = kind;
  q.k = k;
  q.kmax = kmax;
  return q;
}

TEST(QueryRun, MatchesNamedMethodsForEveryAlgorithm) {
  const Graph g = social_like(220, 1700, 0.45, 23);
  for (const Algorithm alg : all_algorithms()) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);

    for (const int k : {2, 3, 4, 5}) {
      EXPECT_EQ(engine.run(make(QueryKind::Count, k)).count, engine.count(k).count)
          << algorithm_name(alg) << " k=" << k;
      EXPECT_EQ(engine.run(make(QueryKind::HasClique, k)).found, engine.has_clique(k))
          << algorithm_name(alg) << " k=" << k;
      EXPECT_EQ(engine.run(make(QueryKind::PerVertexCounts, k)).per_counts,
                engine.per_vertex_counts(k))
          << algorithm_name(alg) << " k=" << k;
      EXPECT_EQ(engine.run(make(QueryKind::PerEdgeCounts, k)).per_counts,
                engine.per_edge_counts(k))
          << algorithm_name(alg) << " k=" << k;
    }

    const Answer spec = engine.run(make(QueryKind::Spectrum));
    const CliqueSpectrum named = engine.spectrum();
    EXPECT_EQ(spec.spectrum.counts, named.counts) << algorithm_name(alg);
    EXPECT_EQ(spec.spectrum.omega, named.omega) << algorithm_name(alg);
    EXPECT_EQ(spec.omega, named.omega) << algorithm_name(alg);

    const Answer mc = engine.run(make(QueryKind::MaxClique));
    EXPECT_EQ(mc.omega, engine.max_clique_size()) << algorithm_name(alg);
    EXPECT_EQ(mc.witness.size(), static_cast<std::size_t>(mc.omega)) << algorithm_name(alg);
    for (std::size_t i = 0; i < mc.witness.size(); ++i) {
      for (std::size_t j = i + 1; j < mc.witness.size(); ++j) {
        EXPECT_TRUE(g.has_edge(mc.witness[i], mc.witness[j])) << algorithm_name(alg);
      }
    }

    const Answer find = engine.run(make(QueryKind::FindClique, 4));
    EXPECT_EQ(find.found, engine.has_clique(4)) << algorithm_name(alg);
    if (find.found) {
      ASSERT_EQ(find.witness.size(), 4u) << algorithm_name(alg);
      for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = i + 1; j < 4; ++j) {
          EXPECT_TRUE(g.has_edge(find.witness[i], find.witness[j])) << algorithm_name(alg);
        }
      }
    }
  }
}

TEST(QueryRun, ListMaterializesExactlyTheCliques) {
  const Graph g = erdos_renyi(120, 900, 31);
  const PreparedGraph engine(g, {});
  const int k = 4;

  // Ground truth via the callback primitive.
  std::set<std::vector<node_t>> expected;
  std::mutex guard;
  (void)engine.list(k, [&](std::span<const node_t> clique) {
    std::vector<node_t> sorted(clique.begin(), clique.end());
    std::sort(sorted.begin(), sorted.end());
    const std::lock_guard<std::mutex> lock(guard);
    expected.insert(std::move(sorted));
    return true;
  });

  const Answer a = engine.run(make(QueryKind::List, k));
  EXPECT_FALSE(a.truncated);
  EXPECT_EQ(a.count, static_cast<count_t>(a.cliques.size()));
  std::set<std::vector<node_t>> got;
  for (const std::vector<node_t>& clique : a.cliques) {
    std::vector<node_t> sorted = clique;
    std::sort(sorted.begin(), sorted.end());
    got.insert(std::move(sorted));
  }
  EXPECT_EQ(got, expected);
}

TEST(QueryRun, ListHonorsResultLimit) {
  const Graph g = social_like(200, 1600, 0.5, 3);
  const PreparedGraph engine(g, {});
  const count_t total = engine.count(3).count;
  ASSERT_GT(total, 10u);

  Query q = make(QueryKind::List, 3);
  q.opts.result_limit = 10;
  const Answer a = engine.run(q);
  EXPECT_EQ(a.cliques.size(), 10u);
  EXPECT_EQ(a.count, 10u);
  EXPECT_TRUE(a.truncated);
  for (const std::vector<node_t>& clique : a.cliques) {
    ASSERT_EQ(clique.size(), 3u);
    EXPECT_TRUE(g.has_edge(clique[0], clique[1]));
    EXPECT_TRUE(g.has_edge(clique[0], clique[2]));
    EXPECT_TRUE(g.has_edge(clique[1], clique[2]));
  }

  // A limit of exactly the clique count is a complete listing — not
  // truncated (only an over-limit emission proves incompleteness).
  Query exact = make(QueryKind::List, 3);
  exact.opts.result_limit = total;
  const Answer b = engine.run(exact);
  EXPECT_EQ(b.cliques.size(), static_cast<std::size_t>(total));
  EXPECT_FALSE(b.truncated);
}

TEST(QueryRun, PerQueryWorkerCapAppliesInsideTheQueryOnly) {
  const Graph g = erdos_renyi(150, 1000, 17);
  const PreparedGraph engine(g, {});
  engine.prepare();
  const int before = num_workers();

  // A per-thread cap is visible inside a query's enumeration (the loops it
  // launches inherit it) — the mechanism run() uses for opts.max_workers.
  {
    const WorkerCapScope cap(1);
    std::atomic<bool> saw_capped{true};
    std::atomic<bool> called{false};
    (void)engine.list(3, [&](std::span<const node_t>) {
      called.store(true, std::memory_order_relaxed);
      if (num_workers() != 1) saw_capped.store(false, std::memory_order_relaxed);
      return true;
    });
    EXPECT_TRUE(called.load());
    EXPECT_TRUE(saw_capped.load());
  }
  EXPECT_EQ(num_workers(), before) << "scope must restore the thread";

  // run() applies opts.max_workers itself: correct answers, and the global
  // worker count is never written.
  Query q = make(QueryKind::Count, 4);
  q.opts.max_workers = 1;
  EXPECT_EQ(engine.run(q).count, engine.count(4).count);
  EXPECT_EQ(num_workers(), before);
}

TEST(QueryRun, CancelTokenTruncates) {
  const Graph g = social_like(300, 2600, 0.5, 11);
  const PreparedGraph engine(g, {});
  engine.prepare();

  Query q = make(QueryKind::Count, 4);
  q.opts.cancel = std::make_shared<std::atomic<bool>>(true);  // pre-cancelled
  const Answer a = engine.run(q);
  EXPECT_TRUE(a.truncated);
  EXPECT_LE(a.count, engine.count(4).count);

  // An untripped token changes nothing.
  Query free_q = make(QueryKind::Count, 4);
  free_q.opts.cancel = std::make_shared<std::atomic<bool>>(false);
  const Answer full = engine.run(free_q);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.count, engine.count(4).count);
}

TEST(QueryRun, BudgetTruncatesPerCountsEvenWithFewEmissions) {
  // Regression: the per-vertex/per-edge accumulation loops once polled the
  // budget clock only every 256th emission *per thread*, so on a graph with
  // fewer than 256 cliques per thread the budget never fired at all. Each
  // worker's first poll reads the clock, so an already-expired budget must
  // truncate on any graph that has at least one clique.
  const Graph g = social_like(200, 1600, 0.5, 3);
  const PreparedGraph engine(g, {});
  engine.prepare();
  ASSERT_GT(engine.count(3).count, 0u);

  for (const QueryKind kind : {QueryKind::PerVertexCounts, QueryKind::PerEdgeCounts}) {
    Query q = make(kind, 3);
    q.opts.budget_seconds = 1e-9;  // expired before the first emission
    const Answer cut = engine.run(q);
    EXPECT_TRUE(cut.truncated) << query_kind_name(kind);

    // A generous budget changes nothing: full, untruncated answers equal to
    // the named methods.
    Query roomy = make(kind, 3);
    roomy.opts.budget_seconds = 3600.0;
    const Answer full = engine.run(roomy);
    EXPECT_FALSE(full.truncated) << query_kind_name(kind);
    EXPECT_EQ(full.per_counts, kind == QueryKind::PerVertexCounts
                                   ? engine.per_vertex_counts(3)
                                   : engine.per_edge_counts(3))
        << query_kind_name(kind);
  }
}

TEST(QueryRun, CancelTokenCutsPerCountsAccumulation) {
  // The token is checked before every top-level task: a pre-tripped token
  // must truncate per-vertex/per-edge accumulation immediately.
  const Graph g = social_like(200, 1600, 0.5, 3);
  const PreparedGraph engine(g, {});
  engine.prepare();
  for (const QueryKind kind : {QueryKind::PerVertexCounts, QueryKind::PerEdgeCounts}) {
    Query q = make(kind, 3);
    q.opts.cancel = std::make_shared<std::atomic<bool>>(true);
    EXPECT_TRUE(engine.run(q).truncated) << query_kind_name(kind);
  }
}

TEST(QueryRun, BudgetTruncatesSpectrumSafely) {
  const Graph g = social_like(400, 3600, 0.5, 7);
  const PreparedGraph engine(g, {});
  engine.prepare();
  const CliqueSpectrum full = engine.spectrum();

  // An effectively-zero budget must cut the sweep but still return a valid
  // prefix of the spectrum (trivial sizes at least).
  Query q = make(QueryKind::Spectrum);
  q.opts.budget_seconds = 1e-9;
  const Answer a = engine.run(q);
  EXPECT_TRUE(a.truncated);
  ASSERT_GE(a.spectrum.counts.size(), 2u);
  for (std::size_t k = 0; k < a.spectrum.counts.size(); ++k) {
    ASSERT_LT(k, full.counts.size());
    EXPECT_EQ(a.spectrum.counts[k], full.counts[k]) << "prefix diverged at k=" << k;
  }

  // A generous budget returns the full spectrum untruncated.
  Query roomy = make(QueryKind::Spectrum);
  roomy.opts.budget_seconds = 3600.0;
  const Answer b = engine.run(roomy);
  EXPECT_FALSE(b.truncated);
  EXPECT_EQ(b.spectrum.counts, full.counts);
}

// --------------------------------------- the limit rides the search's stop flag

std::vector<Algorithm> prepared_algorithms() {
  return {Algorithm::C3List, Algorithm::C3ListCD, Algorithm::Hybrid, Algorithm::KCList,
          Algorithm::ArbCount};
}

TEST(QueryRun, BudgetBoundsAFruitlessSearch) {
  // The budget must cut a search that emits nothing: ER(400, 40000) has no
  // 14-clique and at most a handful of 13-cliques, and both searches run for
  // seconds unbudgeted. Serial (workers=1), so no OpenMP spin-wait under
  // ctest -j inflates the wall time.
  const Graph dense = erdos_renyi(400, 40000, 1);
  // BruteForce gets a smaller instance; its unbudgeted count 13 there still
  // takes seconds.
  const Graph brute = erdos_renyi(120, 5000, 1);
  for (const Algorithm alg : all_algorithms()) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const bool prepared = alg != Algorithm::BruteForce;
    const PreparedGraph engine(prepared ? dense : brute, opts);
    engine.prepare();  // preparation is not the search's to bound
    for (const char* text : {"count 13 budget=0.02 workers=1", "hasclique 14 budget=0.02 workers=1"}) {
      const Query q = parse_query(text);
      const WallTimer timer;
      const Answer a = engine.run(q);
      EXPECT_LT(timer.seconds(), 0.25) << algorithm_name(alg) << ": " << text;
      if (q.kind == QueryKind::Count || prepared) {
        EXPECT_TRUE(a.truncated) << algorithm_name(alg) << ": " << text;
      }
      if (q.kind == QueryKind::HasClique && prepared) {
        EXPECT_FALSE(a.found) << algorithm_name(alg) << ": " << text;
      }
    }
  }
}

TEST(QueryRun, PreCancelledCountDoesNoSearch) {
  // The token is checked before every top-level task, so a query cancelled
  // before it starts never enters the recursion, on the full pool.
  const Graph g = erdos_renyi(400, 40000, 1);
  for (const Algorithm alg : prepared_algorithms()) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    engine.prepare();
    Query q = make(QueryKind::Count, 13);
    q.opts.cancel = std::make_shared<std::atomic<bool>>(true);
    const Answer a = engine.run(q);
    EXPECT_TRUE(a.truncated) << algorithm_name(alg);
    EXPECT_EQ(a.stats.recursive_calls, 0u) << algorithm_name(alg);
  }
}

TEST(QueryRun, UnfiredBudgetKeepsTheCountingPath) {
  // A budget that never fires changes nothing about how a count searches:
  // the same count and the same work counters as a plain count, including
  // kcList's dense subproblems, which only a callback-free count takes.
  const Graph g = erdos_renyi(120, 5000, 1);
  for (const Algorithm alg : prepared_algorithms()) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    engine.prepare();
    const Answer plain = engine.run(parse_query("count 6"));
    const Answer budgeted = engine.run(parse_query("count 6 budget=3600"));
    EXPECT_FALSE(budgeted.truncated) << algorithm_name(alg);
    EXPECT_EQ(budgeted.count, plain.count) << algorithm_name(alg);
    const CliqueStats& p = plain.stats;
    const CliqueStats& b = budgeted.stats;
    EXPECT_EQ(b.top_level_tasks, p.top_level_tasks) << algorithm_name(alg);
    EXPECT_EQ(b.recursive_calls, p.recursive_calls) << algorithm_name(alg);
    EXPECT_EQ(b.pairs_probed, p.pairs_probed) << algorithm_name(alg);
    EXPECT_EQ(b.edges_matched, p.edges_matched) << algorithm_name(alg);
    EXPECT_EQ(b.intersection_words, p.intersection_words) << algorithm_name(alg);
    EXPECT_EQ(b.leaf_work, p.leaf_work) << algorithm_name(alg);
    EXPECT_EQ(b.dense_subproblems, p.dense_subproblems) << algorithm_name(alg);
    if (alg == Algorithm::KCList) {
      EXPECT_GT(b.dense_subproblems, 0u);
    }
  }
}

TEST(QueryRun, CrossThreadCancelCutsARunningCount) {
  // Another thread flips the token while the count runs; the workers see it
  // at their next top-level task or strided poll and return a truncated
  // partial count. K_60 minus a perfect matching has C(30, 13) * 2^13 ~
  // 9.8e11 13-cliques, far more than any test could count, so the flip
  // always lands mid-search. (K_60 itself is counted in closed form in
  // microseconds.) Every candidate set holding a matched pair is
  // incomplete, so the count walks.
  EdgeList edges;
  for (node_t u = 0; u < 60; ++u) {
    for (node_t v = u + 1; v < 60; ++v) {
      if (v != (u ^ 1u)) edges.push_back(Edge{u, v});
    }
  }
  const Graph g = build_graph(edges, 60);
  for (const Algorithm alg : prepared_algorithms()) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    engine.prepare();
    Query q = make(QueryKind::Count, 13);
    q.opts.cancel = std::make_shared<std::atomic<bool>>(false);
    std::thread canceller([token = q.opts.cancel] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      token->store(true, std::memory_order_relaxed);
    });
    const Answer a = engine.run(q);
    canceller.join();
    EXPECT_TRUE(a.truncated) << algorithm_name(alg);
    EXPECT_LE(a.count, binomial(60, 13)) << algorithm_name(alg);
  }
}

TEST(QueryRun, MaxCliqueWithoutWitness) {
  const Graph g = erdos_renyi(150, 1200, 5);
  const PreparedGraph engine(g, {});
  Query q = make(QueryKind::MaxClique);
  q.opts.want_witness = false;
  const Answer a = engine.run(q);
  EXPECT_EQ(a.omega, engine.max_clique_size());
  EXPECT_TRUE(a.witness.empty());
  EXPECT_TRUE(a.found);
}

TEST(QueryRun, EstimateCostIsMonotoneAndArtifactAware) {
  const Graph g = social_like(500, 4000, 0.4, 9);
  const PreparedGraph engine(g, {});

  // Monotone in k, spectrum/maxclique dominate a single count, and the
  // estimate never triggers preparation.
  const double c3 = estimate_query_cost(engine, make(QueryKind::Count, 3));
  const double c6 = estimate_query_cost(engine, make(QueryKind::Count, 6));
  const double c9 = estimate_query_cost(engine, make(QueryKind::Count, 9));
  EXPECT_LE(c3, c6);
  EXPECT_LE(c6, c9);
  EXPECT_GE(estimate_query_cost(engine, make(QueryKind::Spectrum)), c6);
  EXPECT_GE(estimate_query_cost(engine, make(QueryKind::MaxClique)), c3);
  EXPECT_EQ(engine.artifacts_built(), 0) << "estimation must not prepare";

  // After preparation the estimate uses the real artifacts; it stays finite
  // and positive.
  engine.prepare();
  EXPECT_GT(estimate_query_cost(engine, make(QueryKind::Count, 6)), 0.0);
}

}  // namespace
}  // namespace c3
