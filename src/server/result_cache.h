// Content-addressed result cache for the resident explanation service.
//
// Key: (case name, scenario.cache_key(), PipelineOptions::fingerprint(),
// derived seed) — every input that can change a job's RESULT, each leg
// injective on its own (the scenario key and the options fingerprint both
// encode doubles by bit pattern).  Worker counts are absent by
// construction: the determinism contract (util/parallel.h) makes them
// wall-clock-only, so a grid re-submitted with a different pool size still
// hits.
//
// Value: the job's JobSummary as util/json TEXT.  Storing the serialized
// form (rather than the struct) makes the cache honest about what it
// serves: a hit re-parses through the exact util::Json round-trip
// (ordered members, max_digits10 doubles), so a repeat submission emits
// job JSON bitwise identical to the first run's — which is also what the
// acceptance test asserts.
//
// In-flight dedup: lookup_or_claim on a key someone else is computing
// BLOCKS until that computation fulfills (then returns the hit) or
// abandons.  An abandon hands the claim to exactly ONE waiter (a directed
// per-entry notify, not a herd wake-up): the inheritor returns kClaimed
// and computes; the rest keep waiting on the inherited computation.
// Failed jobs are never cached — a transient failure does not poison the
// key — but a key abandoned kFailFastAfter times IN A ROW is treated as
// poisoned: while a (single) prober recomputes it, other submitters
// get kFastFail immediately instead of convoying behind a job that keeps
// dying.  One success resets the key.  Deadlock-free because every
// in-flight entry has exactly one live owner that will fulfill or abandon
// it — Service::run_job holds the claim in a RAII guard so even an
// escaped exception abandons rather than strands.
//
// Eviction: LRU by bytes.  Every ready entry's JSON size is tracked and
// the Stats `entries`/`bytes` are maintained incrementally (stats() is
// O(1), not an O(entries) walk).  When a fulfill would push the total
// past CacheOptions::max_bytes, least-recently-SERVED ready entries are
// evicted (a hit refreshes recency) until the total fits again.  In-flight
// entries are never evicted (they are not ready bytes yet), and neither is
// the most-recently-used entry — so a single oversized result is retained
// rather than thrashed, and a fulfill can never evict the value its
// waiters are about to read.  max_bytes == 0 keeps the old unbounded
// behavior.
//
// Persistence: with CacheOptions::journal_path set, every fulfill appends
// one "key \t json \n" line to the journal (keys join their legs with
// 0x1f and JSON strings escape control characters, so neither contains a
// raw tab or newline), and every eviction appends a tombstone ("key \t
// \n", empty value).  Construction replays the journal — last action per
// key wins, in order, so the LRU order survives a restart — tolerating a
// final line truncated by a crash mid-append.  compact() (also run by the
// destructor, i.e. on clean shutdown and at startup after replay)
// rewrites the journal to exactly the resident entries, dropping
// tombstones and superseded lines: checked writes to a temp file, fsync,
// close, rename over the journal, fsync of the directory.  A failure
// before the rename removes the temp file and keeps the previous journal
// (one warning is logged).  One cache per journal file, enforced: the cache
// holds an exclusive flock(2) on "<journal>.lock" for its lifetime — not on
// the journal itself, which compaction replaces by rename — and a second
// cache on the same path (in this process or another) throws.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <fstream>
#include <list>
#include <map>
#include <string>

#include "engine/engine.h"
#include "util/thread_annotations.h"

namespace xplain::server {

struct CacheOptions {
  /// High-water mark for the summed JSON bytes of ready entries; fulfilling
  /// past it evicts least-recently-served entries.  0 = unbounded.
  std::size_t max_bytes = 0;
  /// Append-only journal replayed at construction; "" = no persistence.
  std::string journal_path;
};

class ResultCache {
 public:
  struct Stats {
    long hits = 0;
    long misses = 0;
    /// lookup_or_claim calls that blocked on someone else's computation
    /// (each counts once, whether it ended in a hit or an inherited claim).
    long inflight_waits = 0;
    /// lookup_or_claim calls answered kFastFail (poisoned-key back-off).
    long fast_fails = 0;
    /// Ready entries evicted by the max_bytes LRU policy.
    long evictions = 0;
    /// Ready entries loaded from the journal at construction.
    long replayed = 0;
    std::size_t entries = 0;  // ready entries resident right now
    std::size_t bytes = 0;    // their summed JSON sizes
  };

  /// Consecutive abandons of one key after which other submitters
  /// fast-fail instead of waiting behind the (single) re-prober.
  static constexpr int kFailFastAfter = 3;

  /// Keys whose consecutive-failure tally is remembered at once.  A client
  /// can mint unboundedly many failing keys (a bad case name under fresh
  /// seeds); past this many the tallies are forgotten, which only delays a
  /// key's fast-fail by kFailFastAfter attempts.
  static constexpr std::size_t kMaxFailTallies = 1024;

  enum class Outcome {
    kHit,       // *out filled from cache
    kClaimed,   // caller owns the key: MUST fulfill() or abandon()
    kFastFail,  // key is poisoned (repeat abandons); caller should fail fast
  };

  /// Throws std::runtime_error naming the journal when another cache holds
  /// its lock file or the lock file cannot be opened.
  explicit ResultCache(const CacheOptions& opts = {});
  ~ResultCache();  // compact()s the journal (clean-shutdown rewrite)

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Composes the cache key for one job (see file comment).
  static std::string key(const std::string& case_name,
                         const std::string& scenario_cache_key,
                         const std::string& options_fingerprint,
                         std::uint64_t seed);

  /// kHit: *out filled from the cached JSON.  kClaimed: (after waiting out
  /// any in-flight computation) the caller owns the key and MUST later call
  /// fulfill(key, ...) or abandon(key), or every future lookup of the key
  /// blocks forever.  kFastFail: see kFailFastAfter.
  Outcome lookup_or_claim(const std::string& key, JobSummary* out)
      XPLAIN_EXCLUDES(mu_);

  /// Publishes a computed summary, journals it, wakes waiters, and evicts
  /// past max_bytes.  Only ok results should be published (failures:
  /// abandon).
  void fulfill(const std::string& key, const JobSummary& s)
      XPLAIN_EXCLUDES(mu_);

  /// Releases a claim without publishing (job failed).  With waiters
  /// present, exactly one inherits the claim (directed wake); without, the
  /// entry is erased and the key is claimable again.  Counts toward the
  /// key's consecutive-failure tally.
  void abandon(const std::string& key) XPLAIN_EXCLUDES(mu_);

  /// Rewrites the journal to exactly the resident ready entries; the old
  /// journal survives a failure.  No-op without a journal_path.
  void compact() XPLAIN_EXCLUDES(mu_);

  /// O(1): every field is maintained incrementally.
  Stats stats() const XPLAIN_EXCLUDES(mu_);

  /// Debug/test-only O(entries) recount of `entries`/`bytes` from the map
  /// itself; a mismatch with stats() is a counter-maintenance bug.
  Stats recount_stats() const XPLAIN_EXCLUDES(mu_);

 private:
  enum class State {
    kInFlight,  // claimed, computation running
    kHandoff,   // owner abandoned; one woken waiter converts this back to
                // kInFlight and inherits the claim
    kReady,
  };

  struct Entry {
    State state = State::kInFlight;
    std::string json;       // JobSummary::to_json_value().dump(0) when ready
    std::size_t bytes = 0;  // json.size() when ready
    int waiters = 0;        // threads blocked in cv.wait on this entry
    /// Position in lru_ (valid only when ready); front = most recent.
    std::list<const std::string*>::iterator lru;
    /// Per-entry condvar: abandon notifies ONE waiter (claim handoff),
    /// fulfill notifies all.  Entries with waiters are never erased.
    std::condition_variable_any cv;
  };
  using EntryMap = std::map<std::string, Entry>;

  /// False when the journal is absent or empty.
  bool replay_journal() XPLAIN_REQUIRES(mu_);
  void journal_append(const std::string& key, const std::string& json)
      XPLAIN_REQUIRES(mu_);
  /// Inserts a ready entry (fulfill/replay): counters, LRU front.
  void install_ready(EntryMap::iterator it, std::string json)
      XPLAIN_REQUIRES(mu_);
  /// Removes a ready entry's counter/LRU footprint (evict/self-heal).
  void retire_ready(EntryMap::iterator it) XPLAIN_REQUIRES(mu_);
  /// Evicts LRU-tail entries until bytes fit under max_bytes, skipping the
  /// MRU head and entries with waiters; journals a tombstone per eviction.
  void evict_over_high_water() XPLAIN_REQUIRES(mu_);
  void compact_locked() XPLAIN_REQUIRES(mu_);

  /// Exclusive flock on "<journal_path>.lock" from construction to
  /// destruction; holds nothing without a journal_path.
  class JournalLock {
   public:
    explicit JournalLock(const std::string& journal_path);
    ~JournalLock();
    JournalLock(const JournalLock&) = delete;
    JournalLock& operator=(const JournalLock&) = delete;

   private:
    int fd_ = -1;
  };

  const CacheOptions opts_;
  const JournalLock lock_;  // taken before the journal is touched

  mutable util::Mutex mu_;
  EntryMap entries_ XPLAIN_GUARDED_BY(mu_);
  /// Ready keys, most-recently-served first (pointers into entries_ keys,
  /// which std::map keeps stable).
  std::list<const std::string*> lru_ XPLAIN_GUARDED_BY(mu_);
  /// Consecutive abandons per key; erased on fulfill.  Only keys whose
  /// latest outcome was a failure stay resident here, at most
  /// kMaxFailTallies of them.
  std::map<std::string, int> fail_counts_ XPLAIN_GUARDED_BY(mu_);
  std::ofstream journal_ XPLAIN_GUARDED_BY(mu_);
  /// Every counter stats() reports, maintained in place.
  Stats stats_ XPLAIN_GUARDED_BY(mu_);
};

/// RAII ownership of a kClaimed key: abandons on destruction unless the
/// claim was resolved through fulfill()/abandon() — the guard that keeps an
/// exception anywhere on the job path from stranding every future claimant
/// of the key (Service::run_job holds one across the pipeline run).
class ClaimGuard {
 public:
  ClaimGuard(ResultCache* cache, const std::string& key)
      : cache_(cache), key_(&key) {}
  ~ClaimGuard() {
    if (cache_) cache_->abandon(*key_);
  }
  ClaimGuard(const ClaimGuard&) = delete;
  ClaimGuard& operator=(const ClaimGuard&) = delete;

  void fulfill(const JobSummary& s) {
    cache_->fulfill(*key_, s);
    cache_ = nullptr;
  }
  void abandon() {
    cache_->abandon(*key_);
    cache_ = nullptr;
  }

 private:
  ResultCache* cache_;
  const std::string* key_;
};

}  // namespace xplain::server
