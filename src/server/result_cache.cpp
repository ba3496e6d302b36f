#include "server/result_cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "util/json.h"
#include "util/logging.h"

namespace xplain::server {

namespace {

/// write(2) until all of `data` is written; false on any error.
bool write_all(int fd, const std::string& data) {
  for (std::size_t done = 0; done < data.size();) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// fsyncs the directory holding `path`, so a completed rename survives a
/// power cut.  Best effort: the new journal is already in place.
void sync_parent_dir(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::string ResultCache::key(const std::string& case_name,
                             const std::string& scenario_cache_key,
                             const std::string& options_fingerprint,
                             std::uint64_t seed) {
  // 0x1f (unit separator) never occurs in any leg (case names, cache keys
  // and fingerprints are printable single-line strings by construction),
  // so the join is injective — and the composed key contains neither '\n'
  // nor '\t', which keeps the one-line-per-record journal format exact.
  std::string k = case_name;
  k += '\x1f';
  k += scenario_cache_key;
  k += '\x1f';
  k += options_fingerprint;
  k += '\x1f';
  k += std::to_string(seed);
  return k;
}

ResultCache::JournalLock::JournalLock(const std::string& journal_path) {
  if (journal_path.empty()) return;
  const std::string path = journal_path + ".lock";
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0)
    throw std::runtime_error("result cache: cannot open lock file " + path +
                             ": " + std::generic_category().message(errno));
  if (::flock(fd_, LOCK_EX | LOCK_NB) == 0) return;
  const int err = errno;
  ::close(fd_);
  if (err == EWOULDBLOCK)
    throw std::runtime_error("result cache: journal " + journal_path +
                             " is in use by another cache (" + path +
                             " is locked)");
  throw std::runtime_error("result cache: cannot lock " + path + ": " +
                           std::generic_category().message(err));
}

ResultCache::JournalLock::~JournalLock() {
  if (fd_ >= 0) ::close(fd_);  // releases the flock
}

ResultCache::ResultCache(const CacheOptions& opts)
    : opts_(opts), lock_(opts.journal_path) {
  if (opts_.journal_path.empty()) return;
  util::MutexLock lock(&mu_);
  const bool replayed_any = replay_journal();
  evict_over_high_water();
  // Startup invariant: the journal equals the resident state (replay of a
  // crashed journal plus the rewrite also discards its truncated tail and
  // tombstones).  An absent or empty journal already does, so it skips the
  // rewrite and its fsyncs.  compact_locked leaves the journal open.
  if (replayed_any) {
    compact_locked();
  } else {
    journal_.open(opts_.journal_path, std::ios::binary | std::ios::app);
  }
}

ResultCache::~ResultCache() {
  if (opts_.journal_path.empty()) return;
  util::MutexLock lock(&mu_);
  compact_locked();
  journal_.close();
}

ResultCache::Outcome ResultCache::lookup_or_claim(const std::string& key,
                                                  const QueuedJob& job,
                                                  JobSummary* out) {
  std::string json;
  {
    util::MutexLock lock(&mu_);
    const auto [it, absent] = entries_.try_emplace(key);
    Entry& e = it->second;
    if (absent) {
      ++stats_.misses;  // the new in-flight entry is the caller's claim
      return Outcome::kClaimed;
    }
    if (e.state == State::kInFlight) {
      e.riders.push_back(job);
      ++stats_.inflight_waits;
      return Outcome::kRiding;
    }
    // Serve: refresh recency, then parse outside the lock — the exact
    // util/json round-trip is the serving path, not just storage.
    lru_.splice(lru_.begin(), lru_, e.lru);
    json = e.json;
    ++stats_.hits;
  }
  std::optional<util::Json> v = util::Json::parse(json);
  std::optional<JobSummary> s =
      v ? JobSummary::from_json_value(*v) : std::nullopt;
  if (s) {
    *out = std::move(*s);
    return Outcome::kHit;
  }
  // An entry that does not decode (the journal is outside input): self-heal
  // by converting it into a claim the caller owns.
  {
    util::MutexLock lock(&mu_);
    auto bad = entries_.find(key);
    if (bad != entries_.end() && bad->second.state == State::kReady) {
      retire_ready(bad);
      bad->second.state = State::kInFlight;
      journal_append(key, "");  // tombstone: never serve it again
      --stats_.hits;  // this lookup served nothing: it is a miss
      ++stats_.misses;
      return Outcome::kClaimed;
    }
  }
  return lookup_or_claim(key, job, out);  // evicted or healed meanwhile
}

std::vector<QueuedJob> ResultCache::fulfill(const std::string& key,
                                            const JobSummary& s) {
  std::string json = s.to_json_value().dump(0);
  util::MutexLock lock(&mu_);
  auto it = entries_.try_emplace(key).first;  // normally the claim we own
  Entry& e = it->second;
  if (e.state == State::kReady) retire_ready(it);  // defensive overwrite
  std::vector<QueuedJob> riders = std::exchange(e.riders, {});
  stats_.hits += static_cast<long>(riders.size());
  install_ready(it, std::move(json));
  journal_append(key, e.json);
  evict_over_high_water();
  return riders;
}

std::vector<QueuedJob> ResultCache::abandon(const std::string& key) {
  util::MutexLock lock(&mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.state != State::kInFlight)
    return {};  // not claimed: nothing to release
  std::vector<QueuedJob> riders = std::move(it->second.riders);
  stats_.misses += static_cast<long>(riders.size());
  entries_.erase(it);  // key claimable again; failures are never cached
  return riders;
}

void ResultCache::compact() {
  util::MutexLock lock(&mu_);
  compact_locked();
}

ResultCache::Stats ResultCache::stats() const {
  util::MutexLock lock(&mu_);
  return stats_;
}

ResultCache::Stats ResultCache::recount_stats() const {
  util::MutexLock lock(&mu_);
  Stats s = stats_;
  s.entries = 0;
  s.bytes = 0;
  for (const auto& [k, e] : entries_) {
    if (e.state != State::kReady) continue;
    ++s.entries;
    s.bytes += e.json.size();
  }
  return s;
}

void ResultCache::install_ready(EntryMap::iterator it, std::string json) {
  Entry& e = it->second;
  e.state = State::kReady;
  e.json = std::move(json);
  e.bytes = e.json.size();
  lru_.push_front(&it->first);
  e.lru = lru_.begin();
  ++stats_.entries;
  stats_.bytes += e.bytes;
}

void ResultCache::retire_ready(EntryMap::iterator it) {
  Entry& e = it->second;
  stats_.bytes -= e.bytes;
  --stats_.entries;
  lru_.erase(e.lru);
  e.json.clear();
  e.bytes = 0;
}

void ResultCache::evict_over_high_water() {
  if (opts_.max_bytes == 0) return;
  while (stats_.bytes > opts_.max_bytes && lru_.size() > 1) {
    auto it = entries_.find(*lru_.back());
    retire_ready(it);
    // The tombstone goes out after the erase: an append failure compacts
    // the journal, which must no longer hold the victim.
    const auto victim = entries_.extract(it);
    journal_append(victim.key(), "");
    ++stats_.evictions;
  }
}

bool ResultCache::replay_journal() {
  std::ifstream in(opts_.journal_path, std::ios::binary);
  if (!in) return false;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // One "key \t json" record per line; an empty json is a tombstone.  The
  // LAST action per key wins.  A final line without its terminating '\n'
  // is a crash mid-append: dropped.  (Lines that fail to split or whose
  // value no longer parses are skipped too — only exact util/json
  // documents are ever served.)
  std::map<std::string, std::pair<std::size_t, std::string>> last;
  std::size_t pos = 0, line_no = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // truncated final line
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    last[line.substr(0, tab)] = {line_no++, line.substr(tab + 1)};
  }
  // Reinstall survivors in last-action order: later lines are more recent,
  // and install_ready pushes to the LRU front, so the final head is the
  // newest entry — recency survives the restart.
  std::map<std::size_t, std::pair<const std::string*, const std::string*>>
      order;
  for (const auto& [k, v] : last)
    if (!v.second.empty()) order[v.first] = {&k, &v.second};
  for (const auto& [ln, kv] : order) {
    (void)ln;
    if (!util::Json::parse(*kv.second)) continue;
    auto [it, inserted] = entries_.try_emplace(*kv.first);
    if (!inserted) continue;  // cannot happen: keys are unique in `last`
    install_ready(it, *kv.second);
    ++stats_.replayed;
  }
  return !text.empty();
}

void ResultCache::journal_append(const std::string& key,
                                 const std::string& json) {
  if (!journal_.is_open()) return;
  if (journal_behind_) journal_ << '\n';  // replay drops only a torn line
  journal_ << key << '\t' << json << '\n';
  if (journal_.flush()) {
    // The journal lacks records whose appends failed: now that one went
    // through, rewrite it from the resident entries.
    if (journal_behind_) compact_locked();
    return;
  }
  // A full disk or a file-size limit: the stream stays failed until it is
  // reopened, which compaction does either way.
  if (journal_behind_) {
    // Still no room, so a compaction would fail too: wait for an append
    // that succeeds instead of rewriting every entry under the lock.
    journal_.close();
    journal_.open(opts_.journal_path, std::ios::binary | std::ios::app);
    return;
  }
  journal_behind_ = true;
  XPLAIN_WARN << "result cache: appending to " << opts_.journal_path
              << " failed; compacting it";
  compact_locked();
}

void ResultCache::compact_locked() {
  if (opts_.journal_path.empty()) return;
  if (journal_.is_open()) journal_.close();
  const std::string& path = opts_.journal_path;
  const std::string tmp = path + ".tmp";
  // Write order: temp file (every write checked) -> fsync -> close ->
  // rename over the journal -> fsync the directory.  A failure before the
  // rename (full disk, file size limit) leaves the previous journal.
  int err = 0;  // the first failing step's errno
  const auto step = [&err](bool succeeded) {
    if (!succeeded && err == 0) err = errno != 0 ? errno : EIO;
    return err == 0;
  };
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (step(fd >= 0)) {
    // LRU tail first: replay reads oldest-to-newest and rebuilds the same
    // recency order (the file's last line becomes the MRU head again).
    for (auto it = lru_.rbegin(); err == 0 && it != lru_.rend(); ++it) {
      const auto e = entries_.find(**it);
      step(write_all(fd, e->first + '\t' + e->second.json + '\n'));
    }
    if (err == 0) step(::fsync(fd) == 0);
    step(::close(fd) == 0);
  }
  if (err == 0) step(std::rename(tmp.c_str(), path.c_str()) == 0);
  if (err == 0) {
    sync_parent_dir(path);
    journal_behind_ = false;  // the new journal holds every entry, whole
  } else {
    ::unlink(tmp.c_str());
    XPLAIN_WARN << "result cache: compacting " << path << " failed ("
                << std::generic_category().message(err)
                << "); keeping the previous journal";
  }
  journal_.open(path, std::ios::binary | std::ios::app);
}

}  // namespace xplain::server
