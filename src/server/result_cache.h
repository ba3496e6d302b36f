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
// In-flight dedup without blocking: lookup_or_claim on a key someone else
// is computing records the caller's job as a RIDER on that claim and
// returns kRiding at once.  fulfill() and abandon() hand the riders back,
// and the claimant's worker delivers each one (Service::resolve), so no
// thread ever waits inside the cache.  After fulfill a rider gets exactly
// what a hit would serve; after abandon it gets the claimant's failure (a
// job is a pure function of its key, so a deterministic failure is the
// rider's too).  Failed jobs are never cached: abandon erases the claim
// and a later lookup claims the key afresh.
//
// Eviction: LRU by bytes.  Every ready entry's JSON size is tracked and
// the Stats `entries`/`bytes` are maintained incrementally (stats() is
// O(1), not an O(entries) walk).  When a fulfill would push the total
// past CacheOptions::max_bytes, least-recently-SERVED ready entries are
// evicted (a hit refreshes recency) until the total fits again or one
// entry is left, so a single oversized result is retained rather than
// thrashed.  Only ready entries are on the LRU list: a claim (and its
// riders) is never evicted.  max_bytes == 0 keeps the old unbounded
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
// (one warning is logged).  A failed append (a full disk, a file-size
// limit) logs a warning and recovers by compacting.  While that fails,
// each later append starts on a fresh line, so a torn record never
// swallows the one behind it; an append that fails again only reopens the
// stream (a compaction would fail too), and the first one that succeeds
// retries the compaction, so the records lost meanwhile reach the journal
// once the disk has room again.  One cache per journal file, enforced: the
// cache holds an exclusive flock(2) on "<journal>.lock" for its lifetime —
// not on the journal itself, which compaction replaces by rename — and a
// second cache on the same path (in this process or another) throws.
#pragma once

#include <cstddef>
#include <fstream>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "server/job_queue.h"
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
    /// lookup_or_claim calls that rode someone else's claim (kRiding).
    /// Each rider also counts as a hit when the claim is fulfilled or as a
    /// miss when it is abandoned, so once every claim is resolved
    /// hits + misses equals the number of lookups.
    long inflight_waits = 0;
    /// Ready entries evicted by the max_bytes LRU policy.
    long evictions = 0;
    /// Ready entries loaded from the journal at construction.
    long replayed = 0;
    std::size_t entries = 0;  // ready entries resident right now
    std::size_t bytes = 0;    // their summed JSON sizes
  };

  enum class Outcome {
    kHit,      // *out filled from cache
    kClaimed,  // caller owns the key: MUST fulfill() or abandon()
    kRiding,   // key in flight elsewhere: the claimant delivers `job`
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

  /// Never waits on another thread's computation.  kHit: *out filled
  /// from the cached JSON.  kClaimed: the caller owns the key and MUST
  /// later call fulfill(key, ...) or abandon(key), which return every job
  /// that rode the claim.  kRiding: the key is in flight elsewhere; `job`
  /// rides that claim and *out is untouched.
  Outcome lookup_or_claim(const std::string& key, const QueuedJob& job,
                          JobSummary* out) XPLAIN_EXCLUDES(mu_);

  /// Publishes a computed summary, journals it, and evicts past max_bytes.
  /// Only ok results should be published (failures: abandon).  Returns the
  /// claim's riders in arrival order, each counted as a hit.
  [[nodiscard]] std::vector<QueuedJob> fulfill(const std::string& key,
                                               const JobSummary& s)
      XPLAIN_EXCLUDES(mu_);

  /// Releases a claim without publishing (the job failed): the entry is
  /// erased and the key is claimable again.  Returns the claim's riders in
  /// arrival order, each counted as a miss.
  [[nodiscard]] std::vector<QueuedJob> abandon(const std::string& key)
      XPLAIN_EXCLUDES(mu_);

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
    kReady,
  };

  struct Entry {
    State state = State::kInFlight;
    std::string json;       // JobSummary::to_json_value().dump(0) when ready
    std::size_t bytes = 0;  // json.size() when ready
    /// Position in lru_ (valid only when ready); front = most recent.
    std::list<const std::string*>::iterator lru;
    /// Jobs riding the claim, in arrival order (in flight only).
    std::vector<QueuedJob> riders;
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
  /// Evicts LRU-tail entries until bytes fit under max_bytes or one entry
  /// is left; journals a tombstone per eviction.
  void evict_over_high_water() XPLAIN_REQUIRES(mu_);
  /// compact() under the lock; reopens the journal for appends either way
  /// and, on success, clears journal_behind_.
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
  std::ofstream journal_ XPLAIN_GUARDED_BY(mu_);
  /// An append failed since the last successful compaction: the journal
  /// lacks that record and may end in a torn one.
  bool journal_behind_ XPLAIN_GUARDED_BY(mu_) = false;
  /// Every counter stats() reports, maintained in place.
  Stats stats_ XPLAIN_GUARDED_BY(mu_);
};

}  // namespace xplain::server
