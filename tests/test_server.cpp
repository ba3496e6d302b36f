// Resident explanation service: job-queue FIFO/close/backpressure
// semantics, result-cache round-trip + riders on an in-flight claim + LRU
// eviction + journal persistence (including appends and a compaction that
// run out of file size, and records of the wrong JSON kinds), and the
// Service acceptance criteria — a repeated submission is served bitwise
// identical from cache with ZERO new LP work, results (failed jobs
// included) match Engine::run for any pool size, drain-under-load neither
// loses nor duplicates a job, a job queued behind an in-flight duplicate
// is not held up by it, a hit is served at submit while an earlier compute
// runs, results are cached by the time run() returns, submit() holds a
// submission past the pending-jobs bound, a summary the cache cannot
// reproduce is never cached, a throwing case build strands no claimant,
// case instances live exactly as long as the jobs that name them, and a
// restarted service replays the journaled working set with zero new LP
// work.  Runs under TSan in CI with XPLAIN_WORKERS=4 (and the persistence
// cases under ASan).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cases/ff_case.h"
#include "counted_case.h"
#include "engine/engine.h"
#include "scenario/spec.h"
#include "server/job_queue.h"
#include "server/result_cache.h"
#include "server/service.h"
#include "solver/lp.h"
#include "util/json.h"

using namespace xplain;
using server::CacheOptions;
using server::JobQueue;
using server::QueuedJob;
using server::ResultCache;
using server::Service;
using server::ServiceOptions;
using server::ServiceStats;
using Outcome = ResultCache::Outcome;

namespace {

scenario::ScenarioSpec line(int n) {
  scenario::ScenarioSpec s;
  s.kind = scenario::TopologyKind::kLine;
  s.size = n;
  return s;
}

/// A cheap 6-job grid (two VBP-ish cases x three line sizes) with the
/// pipeline knobs turned down — the same shape test_engine sweeps.
ExperimentSpec small_grid() {
  ExperimentSpec spec;
  spec.cases = {"first_fit", "demand_pinning_chain"};
  spec.scenarios = {line(3), line(4), line(5)};
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.subspace.tree_samples = 60;
  spec.options.subspace.significance.pairs = 30;
  spec.options.subspace.significance.p_threshold = 0.5;
  spec.options.explain.samples = 40;
  spec.grammar.p_threshold = 0.5;
  return spec;
}

std::string job_json(const JobSummary& s) { return s.to_json_value().dump(0); }

/// Minimal ok summary whose JSON size depends only on the argument LENGTHS
/// — callers pick equal-length names/gaps so LRU byte accounting is exact.
JobSummary tiny(const std::string& name, double gap, std::uint64_t seed) {
  JobSummary s;
  s.case_name = name;
  s.ok = true;
  s.best_gap_found = gap;
  s.seed = seed;
  return s;
}

/// fulfill() / abandon() of a claim no job rode: nothing comes back.
void fulfill_alone(ResultCache& cache, const std::string& key,
                   const JobSummary& s) {
  EXPECT_TRUE(cache.fulfill(key, s).empty()) << "unexpected riders";
}
void abandon_alone(ResultCache& cache, const std::string& key) {
  EXPECT_TRUE(cache.abandon(key).empty()) << "unexpected riders";
}

/// submit() with an on_done that fulfils *summary; returns the handle.
std::uint64_t submit_for(Service& svc, const ExperimentSpec& spec,
                         std::future<ExperimentSummary>* summary,
                         Service::JobCallback on_job = {}) {
  auto done = std::make_shared<std::promise<ExperimentSummary>>();
  *summary = done->get_future();
  return svc.submit(spec, std::move(on_job),
                    [done](const ExperimentSummary& s) { done->set_value(s); });
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Removes a test journal and what a cache leaves beside it: the lock file
/// and a compaction's temp file.
void remove_journal(const std::string& path) {
  for (const std::string& f : {path, path + ".lock", path + ".tmp"})
    std::remove(f.c_str());
}

/// Wall time is the one legitimately nondeterministic field of a FRESH
/// run; zero it when comparing service output against Engine output.
ExperimentSummary scrub_wall(ExperimentSummary s) {
  s.wall_seconds = 0.0;
  for (JobSummary& j : s.jobs) j.wall_seconds = 0.0;
  return s;
}

/// Lowers this process's RLIMIT_FSIZE soft limit, with SIGXFSZ ignored so
/// an oversized write fails with EFBIG instead of killing the process;
/// restores both on scope exit.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    getrlimit(RLIMIT_FSIZE, &saved_);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    setrlimit(RLIMIT_FSIZE, &lowered);
  }
  ~FileSizeLimit() {
    setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = SIG_DFL;
};

/// Holds a pool worker inside a case build until released, so a test can
/// line up submissions behind it.
struct BuildGate {
  std::promise<void> entered;
  std::promise<void> release;
};
BuildGate* g_gate = nullptr;

void register_gate_case() {
  static const bool registered = registry().add(
      "server_gate_case",
      CaseRegistry::Factory([](const scenario::ScenarioSpec* spec)
                                -> std::shared_ptr<HeuristicCase> {
        g_gate->entered.set_value();
        g_gate->release.get_future().wait();
        return registry().create("first_fit", *spec);
      }));
  (void)registered;
}

/// Opened when the rider test's line(4) job is delivered; the rider case's
/// line(3) build waits for it, at most 10 s.
std::shared_future<void> g_line4_delivered;

void register_rider_case() {
  static const bool registered = registry().add(
      "server_rider_case",
      CaseRegistry::Factory([](const scenario::ScenarioSpec* spec)
                                -> std::shared_ptr<HeuristicCase> {
        if (spec->size == 3)
          g_line4_delivered.wait_for(std::chrono::seconds(10));
        return registry().create("first_fit", *spec);
      }));
  (void)registered;
}

/// First Fit on the paper instance, reporting one feature util::Json cannot
/// write (an infinity is written as null).
class InfiniteFeatureCase : public cases::VbpCase {
 public:
  InfiniteFeatureCase() : VbpCase(paper_instance()) {}
  std::map<std::string, double> features() const override {
    std::map<std::string, double> f = VbpCase::features();
    f["unbounded"] = std::numeric_limits<double>::infinity();
    return f;
  }
};

ExperimentSpec counted_spec(std::uint64_t seed) {
  ExperimentSpec spec;
  spec.cases = {memo_test::counted_case()};
  spec.scenarios = {line(3)};
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.subspace.tree_samples = 60;
  spec.options.subspace.significance.pairs = 30;
  spec.options.explain.samples = 0;
  spec.seed = seed;
  return spec;
}

}  // namespace

// ---------------------------------------------------------------- JobQueue

TEST(JobQueue, FifoAcrossDequeues) {
  JobQueue q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push({1, i}));
  EXPECT_EQ(q.size(), 5u);

  QueuedJob job;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop(&job)) << "slot " << i;
    EXPECT_EQ(job.index, i) << "slot " << i;
    EXPECT_EQ(q.size(), static_cast<std::size_t>(4 - i));
  }
}

TEST(JobQueue, CloseDrainsThenSignalsEnd) {
  JobQueue q(4);
  ASSERT_TRUE(q.push({1, 0}));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push({1, 1})) << "push after close must be refused";

  // Residual jobs still drain; only then does pop report the end.
  QueuedJob job;
  ASSERT_TRUE(q.pop(&job));
  EXPECT_EQ(job.index, 0);
  EXPECT_FALSE(q.pop(&job));
}

TEST(JobQueue, BackpressureProducerUnblocksOnConsumeOrClose) {
  JobQueue q(1);
  ASSERT_TRUE(q.push({1, 0}));  // full

  std::atomic<int> second_push{-1};  // -1 pending, 1 accepted, 0 refused
  std::thread producer(
      [&] { second_push.store(q.push({1, 1}) ? 1 : 0); });
  QueuedJob job;
  ASSERT_TRUE(q.pop(&job));  // frees the slot
  producer.join();
  EXPECT_EQ(second_push.load(), 1);
  ASSERT_TRUE(q.pop(&job));
  EXPECT_EQ(job.index, 1);

  // A producer stuck on a full queue is released (with failure) by close.
  ASSERT_TRUE(q.push({1, 2}));
  std::atomic<int> third_push{-1};
  std::thread blocked(
      [&] { third_push.store(q.push({1, 3}) ? 1 : 0); });
  q.close();
  blocked.join();
  EXPECT_EQ(third_push.load(), 0);
}

// -------------------------------------------------------------- ResultCache

TEST(ResultCache, MissFulfillHitReplaysTheExactJson) {
  ResultCache cache;
  const std::string key = ResultCache::key(
      "wcmp", "fat_tree_k4_s1", "pf1:deadbeef", 0xFEEDFACECAFEBEEFull);

  JobSummary s;
  s.case_name = "wcmp";
  s.scenario = "fat_tree_k4_s1";
  s.ok = true;
  s.subspaces = 2;
  s.significant = 1;
  s.best_gap_found = 0.3251;
  s.gap_scale = 2.0;
  s.wall_seconds = 1.25;
  s.lp_solves = 17;
  s.features["pinned_sp_hops"] = 3.0;
  s.seed = 0xFEEDFACECAFEBEEFull;  // above 2^53: exercises the string path
  s.options_fingerprint = "pf1:deadbeef";

  JobSummary out;
  ASSERT_EQ(cache.lookup_or_claim(key, {}, &out), Outcome::kClaimed)
      << "first lookup is a miss";
  fulfill_alone(cache, key, s);
  ASSERT_EQ(cache.lookup_or_claim(key, {}, &out), Outcome::kHit);
  // The cache serves through the exact to_json_value/from_json_value
  // round-trip — the replay is bitwise identical, wall clock included.
  EXPECT_EQ(job_json(out), job_json(s));
  EXPECT_TRUE(out == s);

  const ResultCache::Stats cs = cache.stats();
  EXPECT_EQ(cs.hits, 1);
  EXPECT_EQ(cs.misses, 1);
  EXPECT_EQ(cs.entries, 1u);
}

TEST(ResultCache, FulfillReturnsItsRidersInArrivalOrder) {
  ResultCache cache;
  const std::string key = ResultCache::key("c", "s", "pf", 7);
  JobSummary mine;
  ASSERT_EQ(cache.lookup_or_claim(key, {1, 0}, &mine), Outcome::kClaimed);

  // Duplicates of the in-flight key return at once (this thread would
  // deadlock if either waited for the claim it holds) and ride it.
  JobSummary untouched = tiny("u", 0.5, 3);
  EXPECT_EQ(cache.lookup_or_claim(key, {2, 4}, &untouched), Outcome::kRiding);
  EXPECT_EQ(cache.lookup_or_claim(key, {1, 2}, &untouched), Outcome::kRiding);
  EXPECT_EQ(job_json(untouched), job_json(tiny("u", 0.5, 3)));
  EXPECT_EQ(cache.stats().inflight_waits, 2);
  EXPECT_EQ(cache.stats().hits, 0) << "a rider counts when its claim resolves";

  const std::vector<QueuedJob> riders = cache.fulfill(key, tiny("c", 1.5, 7));
  ASSERT_EQ(riders.size(), 2u);
  EXPECT_EQ(riders[0].submission, 2u);
  EXPECT_EQ(riders[0].index, 4);
  EXPECT_EQ(riders[1].submission, 1u);
  EXPECT_EQ(riders[1].index, 2);
  const ResultCache::Stats cs = cache.stats();
  EXPECT_EQ(cs.hits, 2) << "each rider is served the result: a hit";
  EXPECT_EQ(cs.misses, 1);
  EXPECT_EQ(cs.inflight_waits, 2);

  // The claim is resolved: later lookups hit and nothing rides any more.
  JobSummary out;
  EXPECT_EQ(cache.lookup_or_claim(key, {3, 0}, &out), Outcome::kHit);
  EXPECT_EQ(job_json(out), job_json(tiny("c", 1.5, 7)));
}

TEST(ResultCache, AbandonReturnsItsRidersAsMisses) {
  ResultCache cache;
  const std::string key = ResultCache::key("c", "s", "pf", 7);
  JobSummary out;
  ASSERT_EQ(cache.lookup_or_claim(key, {1, 0}, &out), Outcome::kClaimed);
  ASSERT_EQ(cache.lookup_or_claim(key, {1, 1}, &out), Outcome::kRiding);
  ASSERT_EQ(cache.lookup_or_claim(key, {2, 0}, &out), Outcome::kRiding);

  // The job failed: its riders come back to share the failure, each as a
  // miss (failures are never cached, so none of them was served).
  const std::vector<QueuedJob> riders = cache.abandon(key);
  ASSERT_EQ(riders.size(), 2u);
  EXPECT_EQ(riders[0].submission, 1u);
  EXPECT_EQ(riders[0].index, 1);
  EXPECT_EQ(riders[1].submission, 2u);
  EXPECT_EQ(riders[1].index, 0);
  ResultCache::Stats cs = cache.stats();
  EXPECT_EQ(cs.hits, 0);
  EXPECT_EQ(cs.misses, 3) << "hits + misses == lookups once claims resolve";
  EXPECT_EQ(cs.entries, 0u);

  // The key is claimable again, and the new claim starts with no riders.
  ASSERT_EQ(cache.lookup_or_claim(key, {3, 0}, &out), Outcome::kClaimed);
  fulfill_alone(cache, key, tiny("c", 0.125, 7));
  EXPECT_EQ(cache.lookup_or_claim(key, {3, 1}, &out), Outcome::kHit);
  cs = cache.stats();
  EXPECT_EQ(cs.hits, 1);
  EXPECT_EQ(cs.misses, 4);
  EXPECT_EQ(cs.inflight_waits, 2);
}

TEST(ResultCache, AbandonReopensTheKey) {
  ResultCache cache;
  const std::string key = ResultCache::key("c", "", "pf", 1);
  JobSummary out;
  ASSERT_EQ(cache.lookup_or_claim(key, {}, &out), Outcome::kClaimed);
  abandon_alone(cache, key);  // e.g. the job failed — failures are not cached
  ASSERT_EQ(cache.lookup_or_claim(key, {}, &out), Outcome::kClaimed)
      << "key is claimable again";
  JobSummary s;
  s.case_name = "c";
  s.ok = true;
  fulfill_alone(cache, key, s);
  EXPECT_EQ(cache.lookup_or_claim(key, {}, &out), Outcome::kHit);
  const ResultCache::Stats cs = cache.stats();
  EXPECT_EQ(cs.misses, 2);
  EXPECT_EQ(cs.hits, 1);
  EXPECT_EQ(cs.entries, 1u);
}

TEST(ResultCache, LruEvictionPrefersLeastRecentlyServed) {
  // Probe: one entry's exact byte cost (equal-length names/gaps/seeds make
  // every entry in this test the same size).
  ResultCache probe;
  fulfill_alone(probe, ResultCache::key("a", "s", "pf", 1),
                tiny("a", 0.125, 1));
  const std::size_t one = probe.stats().bytes;
  ASSERT_GT(one, 0u);

  CacheOptions co;
  co.max_bytes = 2 * one;  // room for exactly two entries
  ResultCache cache(co);
  const std::string ka = ResultCache::key("a", "s", "pf", 1);
  const std::string kb = ResultCache::key("b", "s", "pf", 2);
  const std::string kc = ResultCache::key("c", "s", "pf", 3);
  fulfill_alone(cache, ka, tiny("a", 0.125, 1));
  fulfill_alone(cache, kb, tiny("b", 0.375, 2));
  EXPECT_EQ(cache.stats().bytes, 2 * one) << "entries must be equal-sized";

  // Serve A: it becomes most-recent, so the third insert must evict B —
  // least-recently-SERVED, not least-recently-inserted.
  JobSummary out;
  ASSERT_EQ(cache.lookup_or_claim(ka, {}, &out), Outcome::kHit);
  fulfill_alone(cache, kc, tiny("c", 0.625, 3));

  EXPECT_EQ(cache.lookup_or_claim(ka, {}, &out), Outcome::kHit) << "A survived";
  EXPECT_EQ(cache.lookup_or_claim(kc, {}, &out), Outcome::kHit) << "C survived";
  EXPECT_EQ(cache.lookup_or_claim(kb, {}, &out), Outcome::kClaimed)
      << "B was the LRU victim";
  abandon_alone(cache, kb);

  const ResultCache::Stats cs = cache.stats();
  EXPECT_EQ(cs.evictions, 1);
  EXPECT_EQ(cs.entries, 2u);
  EXPECT_LE(cs.bytes, co.max_bytes) << "high-water mark holds";
}

TEST(ResultCache, MruEntryIsNeverEvictedEvenWhenOversized) {
  ResultCache probe;
  fulfill_alone(probe, ResultCache::key("a", "s", "pf", 1),
                tiny("a", 0.125, 1));
  const std::size_t one = probe.stats().bytes;

  CacheOptions co;
  co.max_bytes = one / 2;  // smaller than any single entry
  ResultCache cache(co);
  const std::string ka = ResultCache::key("a", "s", "pf", 1);
  const std::string kb = ResultCache::key("b", "s", "pf", 2);
  // A single oversized result is retained (not thrashed) — the MRU entry
  // is exempt from eviction by design.
  fulfill_alone(cache, ka, tiny("a", 0.125, 1));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 0);
  // The next fulfill displaces it: A is now the LRU tail and goes.
  fulfill_alone(cache, kb, tiny("b", 0.375, 2));
  JobSummary out;
  EXPECT_EQ(cache.lookup_or_claim(kb, {}, &out), Outcome::kHit);
  EXPECT_EQ(cache.lookup_or_claim(ka, {}, &out), Outcome::kClaimed);
  abandon_alone(cache, ka);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(ResultCache, InflightClaimsAreNeverEvicted) {
  ResultCache probe;
  fulfill_alone(probe, ResultCache::key("a", "s", "pf", 1),
                tiny("a", 0.125, 1));
  const std::size_t one = probe.stats().bytes;

  CacheOptions co;
  co.max_bytes = 2 * one;
  ResultCache cache(co);
  const std::string kx = ResultCache::key("x", "s", "pf", 9);
  JobSummary out;
  ASSERT_EQ(cache.lookup_or_claim(kx, {}, &out), Outcome::kClaimed);

  // Churn enough ready entries through the cache to evict everything
  // evictable; the in-flight claim must ride it out untouched.
  fulfill_alone(cache, ResultCache::key("a", "s", "pf", 1),
                tiny("a", 0.125, 1));
  fulfill_alone(cache, ResultCache::key("b", "s", "pf", 2),
                tiny("b", 0.375, 2));
  fulfill_alone(cache, ResultCache::key("c", "s", "pf", 3),
                tiny("c", 0.625, 3));
  EXPECT_GE(cache.stats().evictions, 1);

  fulfill_alone(cache, kx, tiny("x", 0.875, 9));
  EXPECT_EQ(cache.lookup_or_claim(kx, {}, &out), Outcome::kHit)
      << "the claim survived the eviction churn and served its value";
}

TEST(ResultCache, StatsCountersMatchTheDebugRecount) {
  ResultCache probe;
  fulfill_alone(probe, ResultCache::key("a", "s", "pf", 1),
                tiny("a", 0.125, 1));
  CacheOptions co;
  co.max_bytes = 2 * probe.stats().bytes;
  ResultCache cache(co);

  auto check = [&](const char* when) {
    const ResultCache::Stats fast = cache.stats();
    const ResultCache::Stats slow = cache.recount_stats();
    EXPECT_EQ(fast.entries, slow.entries) << when;
    EXPECT_EQ(fast.bytes, slow.bytes) << when;
  };
  check("empty");
  JobSummary out;
  const std::string ka = ResultCache::key("a", "s", "pf", 1);
  ASSERT_EQ(cache.lookup_or_claim(ka, {}, &out), Outcome::kClaimed);
  check("one in-flight claim (zero ready bytes)");
  fulfill_alone(cache, ka, tiny("a", 0.125, 1));
  check("one ready entry");
  fulfill_alone(cache, ResultCache::key("b", "s", "pf", 2),
                tiny("b", 0.375, 2));
  fulfill_alone(cache, ResultCache::key("c", "s", "pf", 3),
                tiny("c", 0.625, 3));
  check("after an eviction");
  EXPECT_EQ(cache.lookup_or_claim(ka, {}, &out), Outcome::kClaimed);
  abandon_alone(cache, ka);
  check("after a claim + abandon");
}

TEST(ResultCache, OneCachePerJournal) {
  const std::string path = "test_server_locked.journal";
  remove_journal(path);
  CacheOptions co;
  co.journal_path = path;
  {
    auto first = std::make_unique<ResultCache>(co);
    fulfill_alone(*first, ResultCache::key("a", "s", "pf", 1),
                  tiny("a", 0.125, 1));
    try {
      ResultCache second(co);
      ADD_FAILURE() << "a second cache opened a journal already in use";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
    first.reset();  // releases the lock (and compacts)
    ResultCache second(co);
    EXPECT_EQ(second.stats().replayed, 1) << "the refused cache wrote nothing";
  }
  remove_journal(path);
}

TEST(ResultCache, JournalReplayServesPriorEntriesByteForByte) {
  const std::string path = "test_server_replay.journal";
  remove_journal(path);
  const std::string ka = ResultCache::key("a", "s", "pf", 1);
  const std::string kb = ResultCache::key("b", "s", "pf", 2);
  const JobSummary a = tiny("a", 0.125, 1), b = tiny("b", 0.375, 2);
  {
    CacheOptions co;
    co.journal_path = path;
    ResultCache cache(co);
    fulfill_alone(cache, ka, a);
    fulfill_alone(cache, kb, b);
  }  // destructor compacts (clean shutdown)
  {
    CacheOptions co;
    co.journal_path = path;
    ResultCache cache(co);
    EXPECT_EQ(cache.stats().replayed, 2);
    JobSummary out;
    ASSERT_EQ(cache.lookup_or_claim(ka, {}, &out), Outcome::kHit);
    EXPECT_EQ(job_json(out), job_json(a)) << "replay is byte-for-byte";
    ASSERT_EQ(cache.lookup_or_claim(kb, {}, &out), Outcome::kHit);
    EXPECT_EQ(job_json(out), job_json(b));
  }
  remove_journal(path);
}

TEST(ResultCache, JournalToleratesTruncationAndGarbage) {
  const std::string path = "test_server_truncated.journal";
  remove_journal(path);
  const std::string ka = ResultCache::key("a", "s", "pf", 1);
  const std::string kb = ResultCache::key("b", "s", "pf", 2);
  {
    CacheOptions co;
    co.journal_path = path;
    ResultCache cache(co);
    fulfill_alone(cache, ka, tiny("a", 0.125, 1));
    fulfill_alone(cache, kb, tiny("b", 0.375, 2));
  }
  {
    // Simulated corruption: a tab-less line, a line whose value is not
    // JSON, and a final append cut off mid-line by a "crash".
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "garbage line without a tab\n";
    out << "kx\tnot json at all\n";
    out << "ky\t{\"trunc";  // no terminating newline
  }
  {
    CacheOptions co;
    co.journal_path = path;
    ResultCache cache(co);
    EXPECT_EQ(cache.stats().replayed, 2) << "only the intact records load";
    JobSummary out;
    EXPECT_EQ(cache.lookup_or_claim(ka, {}, &out), Outcome::kHit);
    EXPECT_EQ(cache.lookup_or_claim(kb, {}, &out), Outcome::kHit);
    EXPECT_EQ(cache.lookup_or_claim("ky\t{\"trunc", {}, &out),
              Outcome::kClaimed)
        << "the truncated record was dropped, not half-applied";
    abandon_alone(cache, "ky\t{\"trunc");
    // Startup compaction already rewrote the journal to the two survivors.
    const std::string text = read_file(path);
    EXPECT_EQ(text.find("garbage"), std::string::npos);
    EXPECT_EQ(text.find("trunc"), std::string::npos);
  }
  remove_journal(path);
}

TEST(ResultCache, CompactionDropsTombstonesAndKeepsLruOrder) {
  const std::string path = "test_server_compact.journal";
  remove_journal(path);
  ResultCache probe;
  fulfill_alone(probe, ResultCache::key("a", "s", "pf", 1),
                tiny("a", 0.125, 1));
  const std::size_t one = probe.stats().bytes;

  const std::string ka = ResultCache::key("a", "s", "pf", 1);
  const std::string kb = ResultCache::key("b", "s", "pf", 2);
  const std::string kc = ResultCache::key("c", "s", "pf", 3);
  const JobSummary a = tiny("a", 0.125, 1), c = tiny("c", 0.625, 3);
  {
    CacheOptions co;
    co.journal_path = path;
    co.max_bytes = 2 * one;
    ResultCache cache(co);
    fulfill_alone(cache, ka, a);
    fulfill_alone(cache, kb, tiny("b", 0.375, 2));
    JobSummary out;
    ASSERT_EQ(cache.lookup_or_claim(ka, {}, &out), Outcome::kHit);  // refresh A
    // Evicts B: a tombstone line in the live journal.
    fulfill_alone(cache, kc, c);
    EXPECT_NE(read_file(path).find(kb + "\t\n"), std::string::npos)
        << "the live journal records the eviction as a tombstone";
  }
  // The clean-shutdown compaction rewrites exactly the survivors, oldest
  // first (so replay rebuilds the same recency order: C is the MRU head).
  const std::string expected =
      ka + "\t" + job_json(a) + "\n" + kc + "\t" + job_json(c) + "\n";
  EXPECT_EQ(read_file(path), expected);
  remove_journal(path);
}

TEST(ResultCache, FailedCompactionKeepsThePreviousJournal) {
  const std::string path = "test_server_short_write.journal";
  remove_journal(path);
  const int n = 20;
  std::vector<std::string> keys;
  CacheOptions co;
  co.journal_path = path;
  auto cache = std::make_unique<ResultCache>(co);
  for (int i = 0; i < n; ++i) {
    keys.push_back(ResultCache::key("c" + std::to_string(i), "s", "pf", i));
    fulfill_alone(*cache, keys.back(), tiny("c", 0.125, i));
  }
  const std::string full = read_file(path);
  ASSERT_FALSE(full.empty());
  {
    // The shutdown compaction runs out of file size halfway through its
    // temp file: it must give up and leave the good journal in place.
    FileSizeLimit limit(full.size() / 2);
    cache.reset();
  }
  EXPECT_EQ(read_file(path), full) << "the previous journal was replaced";
  EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << "temp file left behind";

  {
    ResultCache restarted(co);
    EXPECT_EQ(restarted.stats().replayed, n);
    JobSummary out;
    for (const std::string& k : keys)
      EXPECT_EQ(restarted.lookup_or_claim(k, {}, &out), Outcome::kHit);
  }
  remove_journal(path);
}

TEST(ResultCache, FailedAppendDoesNotStopTheJournal) {
  const std::string path = "test_server_append.journal";
  const std::string copy = "test_server_append_copy.journal";
  remove_journal(path);
  remove_journal(copy);
  const auto fulfill_key = [](ResultCache& cache, int i) {
    fulfill_alone(cache, ResultCache::key("c", "s", "pf", i),
                  tiny("c", 0.125, i));
  };
  // What a crash leaves is the live journal, without the shutdown rewrite:
  // the entries a copy of it replays.
  const auto replayed_after_crash = [&] {
    std::ofstream(copy, std::ios::binary) << read_file(path);
    CacheOptions replay;
    replay.journal_path = copy;
    return ResultCache(replay).stats().replayed;
  };
  CacheOptions co;
  co.journal_path = path;
  {
    ResultCache cache(co);
    for (int i = 0; i < 3; ++i) fulfill_key(cache, i);
    const std::size_t record = read_file(path).size() / 3;  // equal sizes
    {
      // The disk fills up halfway through entry 3's record, and the
      // compaction that tries to recover has no room either.
      FileSizeLimit limit(3 * record + record / 2);
      fulfill_key(cache, 3);
    }
    {
      // Room for one more line, not for a compaction: entry 4's record
      // must not be swallowed by the torn one before it.
      FileSizeLimit limit(read_file(path).size() + 1 + record);
      fulfill_key(cache, 4);
    }
    EXPECT_EQ(replayed_after_crash(), 4) << "entries 0, 1, 2 and 4";
    testing::internal::CaptureStderr();
    {
      // No room for any record: each append fails, and none of them runs a
      // compaction that is bound to fail as well (or warns again).
      FileSizeLimit limit(read_file(path).size());
      for (int i = 5; i < 8; ++i) fulfill_key(cache, i);
    }
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(log.find("compacting"), std::string::npos) << log;
    // Room again: the next append's compaction journals entries 3 and 5-7
    // as well.
    fulfill_key(cache, 8);
    EXPECT_EQ(replayed_after_crash(), 9);
    EXPECT_EQ(cache.stats().entries, 9u);
  }
  remove_journal(path);
  remove_journal(copy);
}

TEST(ResultCache, JournalRecordOfTheWrongKindsIsReclaimed) {
  // The journal is outside input.  A record whose fields have the wrong
  // JSON kinds must not be served as a hit (with defaults in place of the
  // values): it is reclaimed like any record that does not decode.
  const std::string path = "test_server_kinds.journal";
  remove_journal(path);
  const auto record = [](const std::string& key, const char* field,
                         util::Json value) {
    util::Json v = tiny("c", 7.5, 1).to_json_value();
    v.set(field, std::move(value));
    return key + "\t" + v.dump(0) + "\n";
  };
  util::Json features = util::Json::object();
  features.set("num_links", "12");
  const std::string k_ok = ResultCache::key("c", "s", "pf", 1);
  const std::string k_gap = ResultCache::key("c", "s", "pf", 2);
  const std::string k_feat = ResultCache::key("c", "s", "pf", 3);
  const std::string k_null = ResultCache::key("c", "s", "pf", 4);
  std::ofstream(path, std::ios::binary)
      << record(k_ok, "ok", "yes") << record(k_gap, "best_gap_found", "7.5")
      << record(k_feat, "features", features)
      // to_json writes a non-finite double as null: that still decodes, as
      // 0.
      << record(k_null, "best_gap_found", util::Json());
  {
    CacheOptions co;
    co.journal_path = path;
    ResultCache cache(co);
    JobSummary out;
    for (const std::string& k : {k_ok, k_gap, k_feat}) {
      EXPECT_EQ(cache.lookup_or_claim(k, {}, &out), Outcome::kClaimed);
      abandon_alone(cache, k);
    }
    ASSERT_EQ(cache.lookup_or_claim(k_null, {}, &out), Outcome::kHit);
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(out.best_gap_found, 0.0);
    const ResultCache::Stats cs = cache.stats();
    EXPECT_EQ(cs.entries, 1u);
    EXPECT_EQ(cs.hits, 1) << "a reclaimed record served nothing";
    EXPECT_EQ(cs.misses, 3);
  }
  remove_journal(path);
}

// ------------------------------------------------------------------ Service

TEST(Service, RepeatSubmissionIsBitwiseCachedWithZeroNewLpWork) {
  const ExperimentSpec spec = small_grid();
  const int n = static_cast<int>(Engine().expand(spec).size());
  ASSERT_EQ(n, 6);

  // Reference: a service that answers the grid ONCE.  Measured across
  // construction..destruction on this thread: joining the workers flushes
  // every worker's thread-inclusive LP tallies, so the delta is exact.
  const solver::LpCounters before_once = solver::lp_counters();
  {
    ServiceOptions o;
    o.workers = 2;
    Service svc(o);
    const ExperimentSummary s = svc.run(spec);
    ASSERT_EQ(s.jobs.size(), static_cast<std::size_t>(n));
  }
  const long solves_once =
      solver::lp_counters().solves - before_once.solves;
  ASSERT_GT(solves_once, 0);

  // The submission under test answers the same grid TWICE.
  const solver::LpCounters before_twice = solver::lp_counters();
  std::vector<std::string> first_json(n), second_json(n);
  ServiceStats stats;
  {
    ServiceOptions o;
    o.workers = 2;
    Service svc(o);
    std::atomic<int> fresh{0}, cached{0};
    const ExperimentSummary s1 =
        svc.run(spec, [&](const JobSummary&, bool from_cache) {
          (from_cache ? cached : fresh).fetch_add(1);
        });
    for (int i = 0; i < n; ++i) first_json[i] = job_json(s1.jobs[i]);
    EXPECT_EQ(fresh.load(), n);
    EXPECT_EQ(cached.load(), 0);

    const ExperimentSummary s2 =
        svc.run(spec, [&](const JobSummary& j, bool from_cache) {
          EXPECT_TRUE(from_cache) << "job " << j.index;
        });
    for (int i = 0; i < n; ++i) second_json[i] = job_json(s2.jobs[i]);
    // Trends are re-mined from identical job digests: identical too.
    EXPECT_TRUE(scrub_wall(s1) == scrub_wall(s2));
    ASSERT_EQ(s1.trends.size(), s2.trends.size());

    stats = svc.stats();
  }
  const long solves_twice =
      solver::lp_counters().solves - before_twice.solves;

  // The replay is byte-for-byte what the first round emitted — including
  // the cached wall_seconds, which the cache preserves by design.
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(first_json[i], second_json[i]) << "job " << i;
  EXPECT_EQ(stats.cache_hits, n);
  EXPECT_EQ(stats.cache_misses, n);
  EXPECT_EQ(stats.cache_entries, static_cast<std::size_t>(n));
  EXPECT_EQ(stats.jobs_completed, 2 * n);
  EXPECT_EQ(stats.duplicate_deliveries, 0);
  // Each (case, scenario) instance was constructed once, not once per job
  // or per submission.
  EXPECT_EQ(stats.case_builds, n);
  // The acceptance criterion: the cached round added NOTHING to the LP
  // tally — running the grid twice cost exactly one grid of solves.
  EXPECT_EQ(solves_twice, solves_once);
}

TEST(Service, MatchesEngineBitwiseForAnyPoolSize) {
  ExperimentSpec spec = small_grid();
  spec.workers = 1;
  const ExperimentSummary reference = scrub_wall(Engine().run(spec).summary());
  ASSERT_GE(reference.jobs.size(), 6u);
  for (const JobSummary& j : reference.jobs)
    ASSERT_TRUE(j.ok) << j.case_name << "@" << j.scenario << ": " << j.error;

  for (const int pool : {1, 2, 4}) {
    ServiceOptions o;
    o.workers = pool;
    Service svc(o);
    EXPECT_EQ(svc.pool_size(), pool);
    // The spec's own workers field is the ENGINE's knob; the service pool
    // is fixed at construction and must not change job content either way.
    spec.workers = 7;
    const ExperimentSummary got = scrub_wall(svc.run(spec));
    ASSERT_EQ(got.jobs.size(), reference.jobs.size()) << "pool " << pool;
    for (std::size_t i = 0; i < reference.jobs.size(); ++i) {
      EXPECT_EQ(job_json(got.jobs[i]), job_json(reference.jobs[i]))
          << "pool " << pool << " job " << i;
    }
    EXPECT_TRUE(got == reference) << "pool " << pool;
    EXPECT_EQ(got.trends.size(), reference.trends.size());
    EXPECT_EQ(got.observations, reference.observations);
    EXPECT_EQ(got.lp_solves, reference.lp_solves);
    EXPECT_EQ(got.lp_iterations, reference.lp_iterations);
  }
}

TEST(Service, DrainUnderLoadLosesAndDuplicatesNothing) {
  ServiceOptions o;
  o.workers = 4;
  o.queue_capacity = 4;  // small bound: submit exercises backpressure
  Service svc(o);

  // Three submissions with distinct experiment seeds: distinct content
  // (reseed_jobs salts every job from spec.seed), so the cache cannot
  // collapse the load away.
  const int kSubs = 3;
  std::vector<std::future<ExperimentSummary>> summaries(kSubs);
  // Per-slot delivery tallies.  Writes happen in the callback (serialized
  // under the submission's lock); the reads below happen only after
  // drain() returns, which orders after every delivery via the service
  // mutex — plain ints are TSan-clean here.
  std::vector<std::vector<int>> delivered(kSubs);
  int jobs_per_sub = 0;
  for (int s = 0; s < kSubs; ++s) {
    ExperimentSpec spec = small_grid();
    spec.seed = 1000 + s;
    jobs_per_sub = static_cast<int>(Engine().expand(spec).size());
    auto& counts = delivered[s];
    counts.assign(jobs_per_sub, 0);
    const std::uint64_t id =
        submit_for(svc, spec, &summaries[s],
                   [&counts](const JobSummary& j, bool) { ++counts[j.index]; });
    ASSERT_NE(id, Service::kRejected);
  }

  // Drain while the grids are in flight: it must block until every
  // accepted job is delivered, then reject new intake.
  svc.drain();
  ExperimentSpec late = small_grid();
  EXPECT_EQ(svc.submit(late), Service::kRejected);

  for (int s = 0; s < kSubs; ++s)
    for (int i = 0; i < jobs_per_sub; ++i)
      EXPECT_EQ(delivered[s][i], 1)
          << "submission " << s << " slot " << i;

  // Every submission's on_done ran before drain() returned, with its jobs
  // complete and in grid order.
  for (int s = 0; s < kSubs; ++s) {
    ASSERT_EQ(summaries[s].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "submission " << s;
    const ExperimentSummary sum = summaries[s].get();
    ASSERT_EQ(sum.jobs.size(), static_cast<std::size_t>(jobs_per_sub));
    for (int i = 0; i < jobs_per_sub; ++i) {
      EXPECT_EQ(sum.jobs[i].index, i);
      EXPECT_TRUE(sum.jobs[i].ok) << sum.jobs[i].error;
    }
  }

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.jobs_submitted, kSubs * jobs_per_sub);
  EXPECT_EQ(stats.jobs_completed, kSubs * jobs_per_sub);
  EXPECT_EQ(stats.jobs_failed, 0);
  EXPECT_EQ(stats.duplicate_deliveries, 0);
}

TEST(Service, UnknownCaseFailsLoudlyAndIsNeverCached) {
  ExperimentSpec spec;
  spec.cases = {"first_fit", "no_such_case"};
  spec.scenarios = {line(3)};
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.subspace.tree_samples = 60;
  spec.options.subspace.significance.pairs = 30;
  spec.options.explain.samples = 40;

  ServiceOptions o;
  o.workers = 2;
  Service svc(o);
  const ExperimentSummary s1 = svc.run(spec);
  ASSERT_EQ(s1.jobs.size(), 2u);
  EXPECT_TRUE(s1.jobs[0].ok);
  EXPECT_FALSE(s1.jobs[1].ok);
  EXPECT_EQ(s1.jobs[1].error, "unknown case");  // Engine's exact wording

  // Resubmit: the ok job hits, the failed one is recomputed (failures are
  // not cached — a transient condition must not be sticky).
  const ExperimentSummary s2 = svc.run(spec);
  EXPECT_FALSE(s2.jobs[1].ok);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 3);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_EQ(stats.jobs_failed, 2);
}

TEST(Service, JobBehindAnInflightDuplicateFinishesFirst) {
  // Jobs 0 and 1 are one key (reseed_jobs off), and its line(3) build
  // holds its worker until job 2 is delivered.  With two workers, job 2
  // runs only if the duplicate frees the second worker instead of waiting
  // for the claim; otherwise the build times out and job 2 comes last.
  register_rider_case();
  std::promise<void> line4_delivered;
  g_line4_delivered = line4_delivered.get_future().share();
  ExperimentSpec spec = counted_spec(1);
  spec.cases = {"server_rider_case"};
  spec.scenarios = {line(3), line(3), line(4)};
  spec.reseed_jobs = false;

  ServiceOptions o;
  o.workers = 2;
  Service svc(o);
  // Written under the submission's lock (callbacks are serialized per
  // submission), read after run() returns.
  std::vector<int> order;
  std::vector<std::string> json(3);
  std::vector<bool> cached(3);
  const ExperimentSummary s =
      svc.run(spec, [&](const JobSummary& j, bool from_cache) {
        order.push_back(j.index);
        json[j.index] = job_json(j);
        cached[j.index] = from_cache;
        if (j.index == 2) line4_delivered.set_value();
      });
  ASSERT_EQ(s.jobs.size(), 3u);
  for (const JobSummary& j : s.jobs) EXPECT_TRUE(j.ok) << j.error;
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2) << "the job behind the duplicate waited for it";
  EXPECT_FALSE(cached[2]);

  // Scheduling decides which duplicate claims; the other rides it and is
  // served the claimant's result under its own index.
  ASSERT_NE(cached[0], cached[1]) << "exactly one duplicate is computed";
  const int claimant = cached[0] ? 1 : 0;
  const int rider = 1 - claimant;
  JobSummary as_claimant = s.jobs[rider];
  as_claimant.index = claimant;
  EXPECT_EQ(job_json(as_claimant), json[claimant]);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cache_inflight_waits, 1);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.duplicate_deliveries, 0);
}

TEST(Service, HitIsDeliveredWhileAnEarlierComputeRuns) {
  // The front door: a hit is served at submit, not behind the computes
  // queued before it.  The only worker is parked in a gated build.
  register_gate_case();
  ServiceOptions o;
  o.workers = 1;
  Service svc(o);
  const ExperimentSpec cached = counted_spec(1);
  ASSERT_TRUE(svc.run(cached).jobs.at(0).ok);

  BuildGate gate;
  g_gate = &gate;
  ExperimentSpec gate_spec;
  gate_spec.cases = {"server_gate_case"};
  gate_spec.scenarios = {line(3)};
  gate_spec.options.explain.samples = 0;
  std::future<ExperimentSummary> gated, hit;
  submit_for(svc, gate_spec, &gated);
  gate.entered.get_future().wait();
  submit_for(svc, cached, &hit);
  EXPECT_EQ(hit.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "the hit waited for the compute queued before it";
  gate.release.set_value();
  EXPECT_TRUE(gated.get().jobs.at(0).ok);
  g_gate = nullptr;
  const ExperimentSummary s = hit.get();
  ASSERT_EQ(s.jobs.size(), 1u);
  EXPECT_TRUE(s.jobs[0].ok);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 2);
}

TEST(Service, ResultIsCachedWhenRunReturns) {
  // Publish, then deliver: by the time on_done fires (which is when run()
  // returns), every ok job of the submission is in the cache, and a repeat
  // is served from it at submit without any LP work.
  const ExperimentSpec spec = small_grid();
  ServiceOptions o;
  o.workers = 2;
  Service svc(o);
  std::size_t entries_at_done = 0;  // written before the promise is set
  auto done = std::make_shared<std::promise<ExperimentSummary>>();
  std::future<ExperimentSummary> first_done = done->get_future();
  svc.submit(spec, {},
             [&svc, &entries_at_done, done](const ExperimentSummary& s) {
               entries_at_done = svc.stats().cache_entries;
               done->set_value(s);
             });
  const ExperimentSummary first = first_done.get();
  const std::size_t ok = static_cast<std::size_t>(std::count_if(
      first.jobs.begin(), first.jobs.end(),
      [](const JobSummary& j) { return j.ok; }));
  ASSERT_GT(ok, 0u);
  EXPECT_EQ(entries_at_done, ok) << "a job was delivered before it was cached";

  // A repeat of cached jobs is served inside submit(), on this thread, so
  // this thread's tally would see any LP work it did.
  const solver::LpCounters before = solver::lp_counters();
  std::atomic<int> cached{0};
  std::future<ExperimentSummary> repeat_done;
  submit_for(svc, spec, &repeat_done,
             [&cached](const JobSummary&, bool from_cache) {
               if (from_cache) cached.fetch_add(1);
             });
  ASSERT_EQ(repeat_done.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "a repeat of cached jobs was not served at submit";
  EXPECT_EQ(solver::lp_counters().solves - before.solves, 0);
  EXPECT_EQ(static_cast<std::size_t>(cached.load()), ok);
  const ExperimentSummary repeat = repeat_done.get();
  ASSERT_EQ(repeat.jobs.size(), first.jobs.size());
  for (std::size_t i = 0; i < first.jobs.size(); ++i)
    EXPECT_EQ(job_json(repeat.jobs[i]), job_json(first.jobs[i])) << i;
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cache_hits, static_cast<long>(ok));
  EXPECT_EQ(stats.cache_inflight_waits, 0);
}

TEST(Service, SubmitWaitsWhilePendingJobsAreAtTheCap) {
  // One submission of kMaxPendingJobs jobs of one key: one claim, parked
  // in a gated build on the only worker, and riders.  Riders never wait for
  // queue space, so the pending bound is what holds the next submission.
  register_gate_case();
  ServiceOptions o;
  o.workers = 1;
  Service svc(o);
  BuildGate gate;
  g_gate = &gate;
  ExperimentSpec big;
  big.cases = {"server_gate_case"};
  big.scenarios.assign(Service::kMaxPendingJobs, line(3));
  big.options.subspace.max_subspaces = 0;
  big.options.explain.samples = 0;
  big.reseed_jobs = false;
  std::future<ExperimentSummary> big_done;
  ASSERT_NE(submit_for(svc, big, &big_done), Service::kRejected);
  gate.entered.get_future().wait();

  std::future<ExperimentSummary> next_done;
  std::atomic<bool> accepted{false};
  std::thread submitter([&] {
    accepted.store(submit_for(svc, counted_spec(1), &next_done) !=
                   Service::kRejected);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(svc.stats().submissions, 1)
      << "a submission past the pending bound was accepted";
  gate.release.set_value();
  submitter.join();
  g_gate = nullptr;
  ASSERT_TRUE(accepted.load());
  const ExperimentSummary b = big_done.get();
  ASSERT_EQ(b.jobs.size(), static_cast<std::size_t>(Service::kMaxPendingJobs));
  for (const JobSummary& j : b.jobs) ASSERT_TRUE(j.ok) << j.error;
  EXPECT_TRUE(next_done.get().jobs.at(0).ok);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submissions, 2);
  EXPECT_EQ(stats.cache_inflight_waits, Service::kMaxPendingJobs - 1);
  EXPECT_EQ(stats.jobs_completed, Service::kMaxPendingJobs + 1);
  EXPECT_EQ(stats.duplicate_deliveries, 0);
}

TEST(Service, SummaryTheCacheCannotReproduceIsNotCached) {
  // util::Json writes the infinite feature as null, which decodes as 0: a
  // hit would serve a different summary than the compute delivered, so
  // the result is never published and each submission computes it.
  const std::string name = "server_infinite_feature_case";
  registry().add(name, [] { return std::make_shared<InfiniteFeatureCase>(); });
  ExperimentSpec spec;
  spec.cases = {name};
  spec.options.subspace.max_subspaces = 0;
  spec.options.explain.samples = 0;
  ServiceOptions o;
  o.workers = 2;
  Service svc(o);
  const ExperimentSummary s1 = scrub_wall(svc.run(spec));
  const ExperimentSummary s2 = scrub_wall(svc.run(spec));
  ASSERT_EQ(s1.jobs.size(), 1u);
  ASSERT_EQ(s2.jobs.size(), 1u);
  EXPECT_TRUE(s1.jobs[0].ok) << s1.jobs[0].error;
  EXPECT_EQ(s1.jobs[0].features.at("unbounded"),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(job_json(s2.jobs[0]), job_json(s1.jobs[0]));
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cache_entries, 0u);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 2);
}

TEST(Service, ThrowingCaseBuildStrandsNoClaimant) {
  // A factory that throws exercises every guard on the job path: the
  // JobRunner's instance-memo build, and the catch-all that still delivers
  // the job and resolves its result-cache claim.  The test passing AT ALL
  // is the headline assertion — a stranded claim would leave a submission
  // of the same key undelivered forever.
  registry().add("test_throwing_case",
                 CaseRegistry::Factory(
                     [](const scenario::ScenarioSpec*)
                         -> std::shared_ptr<HeuristicCase> {
                       throw std::runtime_error("injected case-build failure");
                     }));

  ExperimentSpec spec;
  spec.cases = {"test_throwing_case"};
  spec.scenarios = {line(3)};

  ServiceOptions o;
  o.workers = 4;
  Service svc(o);
  // Three concurrent submissions of the SAME key: a claimant throws, and
  // its abandon hands the failure to any submission riding the claim (not
  // stranding it); a submission arriving after the abandon claims afresh
  // and throws in turn.
  const int kSubs = 3;
  std::vector<std::future<ExperimentSummary>> summaries(kSubs);
  for (int i = 0; i < kSubs; ++i)
    ASSERT_NE(submit_for(svc, spec, &summaries[i]), Service::kRejected);
  for (std::future<ExperimentSummary>& summary : summaries) {
    const ExperimentSummary s = summary.get();
    ASSERT_EQ(s.jobs.size(), 1u);
    EXPECT_FALSE(s.jobs[0].ok);
    EXPECT_EQ(s.jobs[0].error, "job threw: injected case-build failure");
  }
  // A late submission still completes: nothing is stuck in-flight and the
  // failure was never cached.
  const ExperimentSummary late = svc.run(spec);
  ASSERT_EQ(late.jobs.size(), 1u);
  EXPECT_FALSE(late.jobs[0].ok);
  EXPECT_EQ(late.jobs[0].error, "job threw: injected case-build failure");

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.jobs_failed, kSubs + 1);
  EXPECT_EQ(stats.cache_entries, 0u) << "failures are never cached";
}

TEST(Service, FailedJobsMatchEngineBitwise) {
  // One job path: an unknown case and a default-only case asked for a
  // scenario fail with the same error, seed and options fingerprint under
  // Engine::run and under the Service.
  const std::string name = "server_default_only_case";
  registry().add(name, [] {
    return std::make_shared<cases::VbpCase>(cases::VbpCase::paper_instance());
  });
  ExperimentSpec spec;
  spec.cases = {"no_such_case", name};
  spec.scenarios = {line(3), line(4)};
  spec.options.explain.samples = 0;
  spec.seed = 17;

  const ExperimentSummary engine = Engine().run(spec).summary();
  ServiceOptions o;
  o.workers = 2;
  Service svc(o);
  const ExperimentSummary service = svc.run(spec);
  ASSERT_EQ(engine.jobs.size(), 4u);
  ASSERT_EQ(service.jobs.size(), engine.jobs.size());
  for (std::size_t i = 0; i < engine.jobs.size(); ++i) {
    EXPECT_FALSE(engine.jobs[i].ok);
    EXPECT_NE(engine.jobs[i].seed, 0u) << "job " << i;
    EXPECT_FALSE(engine.jobs[i].options_fingerprint.empty()) << "job " << i;
    EXPECT_EQ(job_json(service.jobs[i]), job_json(engine.jobs[i]))
        << "job " << i;
  }
  EXPECT_EQ(engine.jobs[0].error, "unknown case");
  EXPECT_NE(engine.jobs[2].error.find("default-only"), std::string::npos);
}

TEST(Service, CaseInstancesLiveOnlyWhileTheirJobsAreUnfinished) {
  register_gate_case();
  ServiceOptions o;
  o.workers = 1;
  Service svc(o);
  const int built_before = memo_test::built_count();

  // Park the only worker inside a case build, then submit the counted
  // cell twice (distinct seeds: two result-cache misses) while both are
  // in flight.
  BuildGate gate;
  g_gate = &gate;
  ExperimentSpec gate_spec;
  gate_spec.cases = {"server_gate_case"};
  gate_spec.scenarios = {line(3)};
  gate_spec.options.explain.samples = 0;
  std::future<ExperimentSummary> gated, a, b;
  submit_for(svc, gate_spec, &gated);
  gate.entered.get_future().wait();
  submit_for(svc, counted_spec(1), &a);
  submit_for(svc, counted_spec(2), &b);
  gate.release.set_value();
  EXPECT_EQ(gated.get().jobs.size(), 1u);
  EXPECT_TRUE(a.get().jobs.at(0).ok);
  EXPECT_TRUE(b.get().jobs.at(0).ok);
  g_gate = nullptr;
  EXPECT_EQ(memo_test::built_count() - built_before, 1)
      << "two in-flight submissions of one cell build it once";
  EXPECT_EQ(memo_test::live_count(), 0)
      << "an instance outlived every job that named it";

  // A repeat is a result-cache hit and never reaches the memo; a new seed
  // misses and builds the (since freed) instance again.
  EXPECT_TRUE(svc.run(counted_spec(1)).jobs.at(0).ok);
  EXPECT_EQ(memo_test::built_count() - built_before, 1);
  EXPECT_TRUE(svc.run(counted_spec(3)).jobs.at(0).ok);
  EXPECT_EQ(memo_test::built_count() - built_before, 2);
  EXPECT_EQ(memo_test::live_count(), 0);
  // The gate cell plus the counted cell's two pinned spans.
  EXPECT_EQ(svc.stats().case_builds, 3);
}

TEST(Service, RestartReplaysTheJournaledWorkingSetWithZeroLpWork) {
  const std::string path = "test_server_service.journal";
  remove_journal(path);
  const ExperimentSpec spec = small_grid();
  const int n = static_cast<int>(Engine().expand(spec).size());

  ServiceOptions o;
  o.workers = 2;
  o.cache_path = path;
  std::vector<std::string> first_json(n);
  {
    Service svc(o);
    const ExperimentSummary s = svc.run(spec);
    ASSERT_EQ(s.jobs.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) first_json[i] = job_json(s.jobs[i]);
  }  // clean shutdown compacts the journal

  // The restarted service must serve the whole prior working set from the
  // journal: bitwise identical, all from cache, ZERO new LP solves.
  const solver::LpCounters before = solver::lp_counters();
  {
    Service svc(o);
    EXPECT_EQ(svc.stats().cache_replayed, n);
    const ExperimentSummary s =
        svc.run(spec, [](const JobSummary& j, bool from_cache) {
          EXPECT_TRUE(from_cache) << "job " << j.index;
        });
    ASSERT_EQ(s.jobs.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(job_json(s.jobs[i]), first_json[i]) << "job " << i;
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.cache_hits, n);
    EXPECT_EQ(stats.cache_misses, 0);
  }
  EXPECT_EQ(solver::lp_counters().solves - before.solves, 0);
  remove_journal(path);
}

TEST(Service, ShutdownIsIdempotentAndTerminal) {
  ServiceOptions o;
  o.workers = 2;
  Service svc(o);
  EXPECT_TRUE(svc.run(ExperimentSpec{}).jobs.empty())
      << "an empty grid completes at submit";
  svc.shutdown();
  svc.shutdown();  // second call is a no-op
  ExperimentSpec spec = small_grid();
  EXPECT_EQ(svc.submit(spec), Service::kRejected);
  EXPECT_TRUE(svc.run(spec).jobs.empty());
  // The destructor's shutdown() is then also a no-op.
}
