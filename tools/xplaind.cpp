// xplaind — the resident explanation service behind a stdin/stdout
// newline-delimited-JSON protocol (tools/xplain_client.py is the matching
// client; the README's "Explanation as a service" section documents the
// protocol).
//
// One request per line on stdin, one or more events per line on stdout:
//
//   {"op":"submit","id":<any>,"spec":{...}}
//       -> {"event":"accepted","id":...,"jobs":N}
//       -> {"event":"job","id":...,"cached":bool,"job":{<JobSummary>}}  xN
//       -> {"event":"done","id":...,"summary":{...},"stats":{...}}
//   {"op":"stats"}     -> {"event":"stats", ...cumulative counters...}
//   {"op":"drain"}     -> {"event":"drained"}   (after every done; intake
//                         stays closed: a later submit gets one
//                         {"event":"error"} only)
//   {"op":"shutdown"}  -> {"event":"bye"}       (graceful: every accepted
//                         job's events and done first; EOF also shuts
//                         down, without the bye)
//
// Stats counters are decimal strings (exact past 2^53 — see stats_json).
//
// Flags: --cache-path FILE persists the result cache across restarts
// (journal replayed at startup, compacted on shutdown; a second daemon on
// the same FILE exits 2 naming it); --cache-max-bytes N bounds resident
// cache memory (LRU eviction; 0 = unbounded).
//
// The main loop only parses and dispatches: a submit is answered with
// "accepted" and handed to the service, and the next line is read while
// its jobs run, so submissions overlap and "stats" is answered at once.
// The service's resident worker pool (sized by XPLAIN_WORKERS or one per
// hardware thread) runs the jobs; a cache hit is served while the submit is
// dispatched.  Job events stream as jobs finish; a submission's "done"
// leaves only after every earlier submission's "done".  "id" is echoed
// verbatim so clients can correlate.
//
// The spec object mirrors xplain::ExperimentSpec: cases (array of registry
// names), scenarios (array of {kind,size,capacity,waxman_alpha,waxman_beta,
// seed,failed_links,capacity_degradation} — the shared scenario/spec_json.h
// codec, which enforces scenario/spec.h's admission bounds), seed,
// reseed_jobs, run_generalizer, normalize_gap, options, and
// option_variants (array of options objects, each an overlay on the base
// options; the grid crosses them innermost — labels gain "#o<i>").  An
// options object takes exactly the paths of the options list in
// xplain/pipeline.h (for_each_option), within each row's range.  64-bit
// seeds are accepted as JSON numbers or decimal strings (numbers lose
// precision above 2^53 — use strings for salted seeds).  A request that
// breaks any of this — an unknown options key, a value of the wrong JSON
// kind or out of range, more than kMaxJobsPerSubmission jobs — gets one
// {"event":"error"} naming the field, and nothing runs or is cached.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "engine/engine.h"
#include "scenario/spec_json.h"
#include "server/service.h"
#include "util/json.h"
#include "util/thread_annotations.h"

namespace {

using xplain::util::Json;

/// Jobs one submission may expand to (cases x scenarios x option_variants):
/// every accepted job holds a result slot and a queue entry until it is
/// delivered, so a request line must not be able to ask for millions.
constexpr std::size_t kMaxJobsPerSubmission = 1024;

bool parse_spec(const Json& v, xplain::ExperimentSpec* spec,
                std::string* err) {
  if (v.kind() != Json::Kind::kObject) {
    *err = "spec must be an object";
    return false;
  }
  const Json* cases = v.find("cases");
  if (!cases || cases->kind() != Json::Kind::kArray || cases->size() == 0) {
    *err = "spec.cases must be a non-empty array of case names";
    return false;
  }
  for (const Json& c : cases->items()) {
    if (c.kind() != Json::Kind::kString) {
      *err = "spec.cases entries must be strings";
      return false;
    }
    spec->cases.push_back(c.as_str());
  }
  if (const Json* scens = v.find("scenarios")) {
    if (scens->kind() != Json::Kind::kArray) {
      *err = "spec.scenarios must be an array";
      return false;
    }
    for (const Json& s : scens->items()) {
      // The shared scenario JSON codec (scenario/spec_json.h) — the same
      // parser the fuzzer's discovery archive uses, admission bounds
      // included.
      const auto scen = xplain::scenario::spec_from_json(s, err);
      if (!scen) return false;
      spec->scenarios.push_back(*scen);
    }
  }
  if (!xplain::util::read_field(v, "spec.", "seed", &spec->seed, err) ||
      !xplain::util::read_field(v, "spec.", "reseed_jobs", &spec->reseed_jobs,
                                err) ||
      !xplain::util::read_field(v, "spec.", "run_generalizer",
                                &spec->run_generalizer, err) ||
      !xplain::util::read_field(v, "spec.", "normalize_gap",
                                &spec->normalize_gap, err))
    return false;
  // Options objects go through the one options list (xplain/pipeline.h:
  // for_each_option): unknown keys, wrong kinds and out-of-range values are
  // errors naming the path.
  if (const Json* o = v.find("options");
      o && !spec->options.read_json(*o, "spec.options.", err))
    return false;
  // The option axis: each entry starts from the parsed base options and
  // applies its own overrides; the grid crosses cases x scenarios x
  // variants with variants innermost (ExperimentSpec::option_variants).
  if (const Json* vars = v.find("option_variants")) {
    if (vars->kind() != Json::Kind::kArray) {
      *err = "spec.option_variants must be an array of options objects";
      return false;
    }
    for (std::size_t i = 0; i < vars->size(); ++i) {
      xplain::PipelineOptions variant = spec->options;
      if (!variant.read_json(vars->at(i),
                             "spec.option_variants[" + std::to_string(i) +
                                 "].",
                             err))
        return false;
      spec->option_variants.push_back(variant);
    }
  }
  // Saturating product: no factor can overflow it.
  std::size_t jobs = 1;
  for (const std::size_t axis :
       {spec->cases.size(), std::max<std::size_t>(1, spec->scenarios.size()),
        std::max<std::size_t>(1, spec->option_variants.size())})
    jobs = std::min(jobs * std::min(axis, kMaxJobsPerSubmission + 1),
                    kMaxJobsPerSubmission + 1);
  if (jobs > kMaxJobsPerSubmission) {
    *err = "spec expands to more than " +
           std::to_string(kMaxJobsPerSubmission) +
           " jobs (cases x scenarios x option_variants)";
    return false;
  }
  return true;
}

/// The one stdout writer: the main loop, a submit's cache hits and the
/// workers all write events, each line whole under the lock.  A
/// submission's done event is held until every earlier submission's has
/// left: its cached jobs then never reach the pipe ahead of the done of the
/// submission that computed them.
class EventWriter {
 public:
  void emit(const Json& event) XPLAIN_EXCLUDES(mu_) {
    const std::string line = event.dump(0);
    xplain::util::MutexLock lock(&mu_);
    std::cout << line << '\n' << std::flush;
  }

  /// The next submission's place in the done order.
  std::uint64_t reserve_done() XPLAIN_EXCLUDES(mu_) {
    xplain::util::MutexLock lock(&mu_);
    return next_reserved_++;
  }

  /// Emits the done event of place `slot` (nullptr: that submission was
  /// rejected and has none) once every earlier place's has left.
  void done(std::uint64_t slot, const Json* event) XPLAIN_EXCLUDES(mu_) {
    std::string line = event ? event->dump(0) : std::string();
    xplain::util::MutexLock lock(&mu_);
    held_.emplace(slot, std::move(line));
    for (auto it = held_.begin();
         it != held_.end() && it->first == next_done_; ++next_done_) {
      if (!it->second.empty()) std::cout << it->second << '\n';
      it = held_.erase(it);
    }
    std::cout << std::flush;
  }

 private:
  xplain::util::Mutex mu_;
  std::uint64_t next_reserved_ XPLAIN_GUARDED_BY(mu_) = 0;
  std::uint64_t next_done_ XPLAIN_GUARDED_BY(mu_) = 0;
  /// Done lines waiting for an earlier submission's, by place.
  std::map<std::uint64_t, std::string> held_ XPLAIN_GUARDED_BY(mu_);
};

void emit_error(EventWriter& out, const Json* id, const std::string& message) {
  Json e = Json::object();
  e.set("event", "error");
  if (id) e.set("id", *id);
  e.set("message", message);
  out.emit(e);
}

// Counters are emitted as decimal STRINGS, not JSON numbers: the util/json
// number is a double, and a long-lived daemon's cumulative counters (or a
// cache_bytes high-water on a big box) can exceed 2^53 — the same
// precision convention PR 9 established for 64-bit seeds.  Clients parse
// the strings back to exact integers (tools/xplain_client.py does).
Json stats_json(const xplain::server::ServiceStats& s) {
  Json j = Json::object();
  j.set("submissions", std::to_string(s.submissions));
  j.set("jobs_submitted", std::to_string(s.jobs_submitted));
  j.set("jobs_completed", std::to_string(s.jobs_completed));
  j.set("jobs_failed", std::to_string(s.jobs_failed));
  j.set("duplicate_deliveries", std::to_string(s.duplicate_deliveries));
  j.set("cache_hits", std::to_string(s.cache_hits));
  j.set("cache_misses", std::to_string(s.cache_misses));
  j.set("cache_inflight_waits", std::to_string(s.cache_inflight_waits));
  j.set("cache_evictions", std::to_string(s.cache_evictions));
  j.set("cache_replayed", std::to_string(s.cache_replayed));
  j.set("cache_entries", std::to_string(s.cache_entries));
  j.set("cache_bytes", std::to_string(s.cache_bytes));
  j.set("case_builds", std::to_string(s.case_builds));
  return j;
}

void handle_submit(xplain::server::Service& service, EventWriter& out,
                   const Json& req) {
  const Json* idp = req.find("id");
  const Json* spec_json = req.find("spec");
  if (!spec_json) {
    emit_error(out, idp, "submit requires a \"spec\" object");
    return;
  }
  xplain::ExperimentSpec spec;
  std::string err;
  if (!parse_spec(*spec_json, &spec, &err)) {
    emit_error(out, idp, err);
    return;
  }
  // Copied: the callbacks outlive the request line.
  const std::optional<Json> id =
      idp ? std::optional<Json>(*idp) : std::nullopt;
  {
    Json a = Json::object();
    a.set("event", "accepted");
    if (id) a.set("id", *id);
    a.set("jobs",
          static_cast<double>(xplain::Engine().expand(spec).size()));
    out.emit(a);
  }
  // Job events come from the workers and, for cache hits, from this thread
  // inside submit(); the done event from whichever thread delivers the
  // last job.
  const std::uint64_t slot = out.reserve_done();
  const std::uint64_t handle = service.submit(
      spec,
      [&out, id](const xplain::JobSummary& s, bool from_cache) {
        Json e = Json::object();
        e.set("event", "job");
        if (id) e.set("id", *id);
        e.set("cached", from_cache);
        e.set("job", s.to_json_value());
        out.emit(e);
      },
      [&out, &service, id, slot](const xplain::ExperimentSummary& summary) {
        Json d = Json::object();
        d.set("event", "done");
        if (id) d.set("id", *id);
        d.set("jobs", static_cast<double>(summary.jobs.size()));
        std::optional<Json> sj = Json::parse(summary.to_json(0));
        d.set("summary", sj ? std::move(*sj) : Json());
        d.set("stats", stats_json(service.stats()));
        out.done(slot, &d);
      });
  if (handle == xplain::server::Service::kRejected) {
    out.done(slot, nullptr);
    emit_error(out, idp, "service is draining; submission rejected");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::ios::sync_with_stdio(false);
  // Workers write events while this thread reads requests: untied, cin no
  // longer flushes cout from this thread, outside the writer's lock, on
  // every getline.
  std::cin.tie(nullptr);
  xplain::server::ServiceOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "xplaind: " << flag << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--cache-path") {
      opts.cache_path = value("--cache-path");
    } else if (arg == "--cache-max-bytes") {
      const char* v = value("--cache-max-bytes");
      const std::optional<std::uint64_t> n = xplain::util::parse_u64(v);
      if (!n) {
        std::cerr << "xplaind: --cache-max-bytes wants a byte count, got \""
                  << v << "\"\n";
        return 2;
      }
      opts.cache_max_bytes = static_cast<std::size_t>(*n);
    } else {
      std::cerr << "xplaind: unknown flag \"" << arg
                << "\" (want --cache-path FILE | --cache-max-bytes N)\n";
      return 2;
    }
  }
  // The service's callbacks write through `out`: declared first, it
  // outlives the service.  A second daemon on the same --cache-path is
  // refused (the cache holds the journal's lock file for its lifetime).
  EventWriter out;
  std::optional<xplain::server::Service> service;
  try {
    service.emplace(opts);
  } catch (const std::exception& e) {
    std::cerr << "xplaind: " << e.what() << "\n";
    return 2;
  }
  bool draining = false;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::optional<Json> req = Json::parse(line);
    if (!req || req->kind() != Json::Kind::kObject) {
      emit_error(out, nullptr,
                 "malformed request (want one JSON object per line)");
      continue;
    }
    const Json* op = req->find("op");
    const std::string opname =
        op && op->kind() == Json::Kind::kString ? op->as_str() : "";
    if (opname == "submit") {
      // Refused before anything is printed: a client counting "accepted"
      // jobs must never wait for one that will not run.
      if (draining)
        emit_error(out, req->find("id"),
                   "service is draining; submission rejected");
      else
        handle_submit(*service, out, *req);
    } else if (opname == "stats") {
      Json e = stats_json(service->stats());
      e.set("event", "stats");
      out.emit(e);
    } else if (opname == "drain") {
      draining = true;
      service->drain();  // returns after every submission's done is out
      Json e = Json::object();
      e.set("event", "drained");
      out.emit(e);
    } else if (opname == "shutdown") {
      service->shutdown();  // every accepted job's events and done first
      Json e = Json::object();
      e.set("event", "bye");
      out.emit(e);
      break;
    } else {
      emit_error(out, req->find("id"),
                 "unknown op \"" + opname +
                     "\" (want submit | stats | drain | shutdown)");
    }
  }
  service->shutdown();
  return 0;
}
