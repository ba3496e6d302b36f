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
//   {"op":"drain"}     -> {"event":"drained"}   (intake stays closed)
//   {"op":"shutdown"}  -> {"event":"bye"}       (graceful; also on EOF)
//
// Stats counters are decimal strings (exact past 2^53 — see stats_json).
//
// Flags: --cache-path FILE persists the result cache across restarts
// (journal replayed at startup, compacted on shutdown); --cache-max-bytes N
// bounds resident cache memory (LRU eviction; 0 = unbounded).
//
// Requests are processed sequentially (the job-level parallelism lives in
// the service's resident worker pool, sized by XPLAIN_WORKERS or one per
// hardware thread); "id" is echoed verbatim so clients can correlate.
//
// The spec object mirrors xplain::ExperimentSpec: cases (array of registry
// names), scenarios (array of {kind,size,capacity,waxman_alpha,waxman_beta,
// seed,failed_links,capacity_degradation} — the shared scenario/spec_json.h
// codec), seed, reseed_jobs, run_generalizer, normalize_gap, options
// covering every result-bearing PipelineOptions knob (min_gap, subspace.*,
// subspace.tree.*, subspace.significance.*, explain.*), and
// option_variants (array of options objects, each an overlay on the base
// options; the grid crosses them innermost — labels gain "#o<i>").  64-bit
// seeds are accepted as JSON numbers or decimal strings (numbers lose
// precision above 2^53 — use strings for salted seeds).
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "engine/engine.h"
#include "scenario/spec_json.h"
#include "server/service.h"
#include "util/json.h"

namespace {

using xplain::util::Json;

double num_or(const Json& obj, const char* key, double dflt) {
  const Json* v = obj.find(key);
  return v && v->kind() == Json::Kind::kNumber ? v->as_num() : dflt;
}

// Integer fields read numbers through util::Json's checked accessors: a
// number that is not finite, integral and in range for the field (a plain
// cast of it is undefined behaviour) records an error naming the field,
// `where` + key, in *err — the request is then answered with an error and
// runs nothing.  An absent field, or one of another kind, keeps the
// default.
int int_or(const Json& obj, const std::string& where, const char* key,
           int dflt, std::string* err) {
  const Json* v = obj.find(key);
  if (!v || v->kind() != Json::Kind::kNumber) return dflt;
  if (const std::optional<int> i = v->as_int()) return *i;
  if (err->empty()) *err = where + key + " must be an integer in int range";
  return dflt;
}

bool bool_or(const Json& obj, const char* key, bool dflt) {
  const Json* v = obj.find(key);
  return v && v->kind() == Json::Kind::kBool ? v->as_bool() : dflt;
}

// 64-bit fields also accept a decimal string, checked by util::parse_u64.
std::uint64_t u64_or(const Json& obj, const std::string& where,
                     const char* key, std::uint64_t dflt, std::string* err) {
  const Json* v = obj.find(key);
  if (!v || (v->kind() != Json::Kind::kNumber &&
             v->kind() != Json::Kind::kString))
    return dflt;
  const std::optional<std::uint64_t> u =
      v->kind() == Json::Kind::kNumber ? v->as_u64()
                                       : xplain::util::parse_u64(v->as_str());
  if (u) return *u;
  if (err->empty()) *err = where + key + " must be an integer in [0, 2^64)";
  return dflt;
}

void parse_pipeline_options(const Json& v, const std::string& where,
                            xplain::PipelineOptions* o, std::string* err) {
  o->min_gap = num_or(v, "min_gap", o->min_gap);
  o->seed_salt = u64_or(v, where, "seed_salt", o->seed_salt, err);
  if (const Json* s = v.find("subspace")) {
    auto& sub = o->subspace;
    const std::string in_sub = where + "subspace.";
    sub.bad_gap_fraction = num_or(*s, "bad_gap_fraction", sub.bad_gap_fraction);
    sub.density_threshold =
        num_or(*s, "density_threshold", sub.density_threshold);
    sub.dkw_eps = num_or(*s, "dkw_eps", sub.dkw_eps);
    sub.dkw_delta = num_or(*s, "dkw_delta", sub.dkw_delta);
    sub.init_half_width_frac =
        num_or(*s, "init_half_width_frac", sub.init_half_width_frac);
    sub.slice_frac = num_or(*s, "slice_frac", sub.slice_frac);
    sub.max_expansion_rounds =
        int_or(*s, in_sub, "max_expansion_rounds", sub.max_expansion_rounds,
               err);
    sub.tree_samples =
        int_or(*s, in_sub, "tree_samples", sub.tree_samples, err);
    sub.tree_inflate_frac =
        num_or(*s, "tree_inflate_frac", sub.tree_inflate_frac);
    sub.max_subspaces =
        int_or(*s, in_sub, "max_subspaces", sub.max_subspaces, err);
    sub.seed = u64_or(*s, in_sub, "seed", sub.seed, err);
    sub.keep_insignificant =
        bool_or(*s, "keep_insignificant", sub.keep_insignificant);
    if (const Json* t = s->find("tree")) {
      const std::string in_tree = in_sub + "tree.";
      sub.tree.max_depth =
          int_or(*t, in_tree, "max_depth", sub.tree.max_depth, err);
      sub.tree.min_samples_leaf = int_or(*t, in_tree, "min_samples_leaf",
                                         sub.tree.min_samples_leaf, err);
      sub.tree.max_thresholds = int_or(*t, in_tree, "max_thresholds",
                                       sub.tree.max_thresholds, err);
    }
    if (const Json* g = s->find("significance")) {
      const std::string in_sig = in_sub + "significance.";
      sub.significance.pairs =
          int_or(*g, in_sig, "pairs", sub.significance.pairs, err);
      sub.significance.p_threshold =
          num_or(*g, "p_threshold", sub.significance.p_threshold);
      sub.significance.shell_frac =
          num_or(*g, "shell_frac", sub.significance.shell_frac);
      sub.significance.seed =
          u64_or(*g, in_sig, "seed", sub.significance.seed, err);
      sub.significance.workers =
          int_or(*g, in_sig, "workers", sub.significance.workers, err);
    }
  }
  if (const Json* e = v.find("explain")) {
    const std::string in_ex = where + "explain.";
    o->explain.samples =
        int_or(*e, in_ex, "samples", o->explain.samples, err);
    o->explain.flow_eps = num_or(*e, "flow_eps", o->explain.flow_eps);
    o->explain.seed = u64_or(*e, in_ex, "seed", o->explain.seed, err);
    o->explain.attempts_per_sample =
        int_or(*e, in_ex, "attempts_per_sample",
               o->explain.attempts_per_sample, err);
    o->explain.workers = int_or(*e, in_ex, "workers", o->explain.workers, err);
  }
}

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
      // parser the fuzzer's discovery archive uses, so the daemon accepts
      // failed_links / capacity_degradation and string seeds for free.
      const auto scen = xplain::scenario::spec_from_json(s, err);
      if (!scen) return false;
      spec->scenarios.push_back(*scen);
    }
  }
  spec->seed = u64_or(v, "spec.", "seed", spec->seed, err);
  spec->reseed_jobs = bool_or(v, "reseed_jobs", spec->reseed_jobs);
  spec->run_generalizer = bool_or(v, "run_generalizer", spec->run_generalizer);
  spec->normalize_gap = bool_or(v, "normalize_gap", spec->normalize_gap);
  if (const Json* o = v.find("options"))
    parse_pipeline_options(*o, "spec.options.", &spec->options, err);
  // The option axis: each entry starts from the parsed base options and
  // applies its own overrides; the grid crosses cases x scenarios x
  // variants with variants innermost (ExperimentSpec::option_variants).
  if (const Json* vars = v.find("option_variants")) {
    if (vars->kind() != Json::Kind::kArray) {
      *err = "spec.option_variants must be an array of options objects";
      return false;
    }
    for (std::size_t i = 0; i < vars->size(); ++i) {
      const Json& ov = vars->at(i);
      if (ov.kind() != Json::Kind::kObject) {
        *err = "spec.option_variants entries must be objects";
        return false;
      }
      xplain::PipelineOptions variant = spec->options;
      parse_pipeline_options(
          ov, "spec.option_variants[" + std::to_string(i) + "].", &variant,
          err);
      spec->option_variants.push_back(variant);
    }
  }
  return err->empty();
}

void emit(const Json& event) { std::cout << event.dump(0) << "\n" << std::flush; }

void emit_error(const Json* id, const std::string& message) {
  Json e = Json::object();
  e.set("event", "error");
  if (id) e.set("id", *id);
  e.set("message", message);
  emit(e);
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
  j.set("cache_fast_fails", std::to_string(s.cache_fast_fails));
  j.set("cache_evictions", std::to_string(s.cache_evictions));
  j.set("cache_replayed", std::to_string(s.cache_replayed));
  j.set("cache_entries", std::to_string(s.cache_entries));
  j.set("cache_bytes", std::to_string(s.cache_bytes));
  j.set("case_builds", std::to_string(s.case_builds));
  return j;
}

void handle_submit(xplain::server::Service& service, const Json& req) {
  const Json* id = req.find("id");
  const Json* spec_json = req.find("spec");
  if (!spec_json) {
    emit_error(id, "submit requires a \"spec\" object");
    return;
  }
  xplain::ExperimentSpec spec;
  std::string err;
  if (!parse_spec(*spec_json, &spec, &err)) {
    emit_error(id, err);
    return;
  }
  {
    Json a = Json::object();
    a.set("event", "accepted");
    if (id) a.set("id", *id);
    a.set("jobs",
          static_cast<double>(xplain::Engine().expand(spec).size()));
    emit(a);
  }
  // The callback runs on worker threads, serialized per submission; the
  // main thread blocks in wait() meanwhile, so stdout has one writer.
  const std::uint64_t handle = service.submit(
      spec, [id](const xplain::JobSummary& s, bool from_cache) {
        Json e = Json::object();
        e.set("event", "job");
        if (id) e.set("id", *id);
        e.set("cached", from_cache);
        e.set("job", s.to_json_value());
        emit(e);
      });
  if (handle == xplain::server::Service::kRejected) {
    emit_error(id, "service is draining; submission rejected");
    return;
  }
  const xplain::ExperimentSummary summary = service.wait(handle);
  Json d = Json::object();
  d.set("event", "done");
  if (id) d.set("id", *id);
  d.set("jobs", static_cast<double>(summary.jobs.size()));
  std::optional<Json> sj = Json::parse(summary.to_json(0));
  d.set("summary", sj ? std::move(*sj) : Json());
  d.set("stats", stats_json(service.stats()));
  emit(d);
}

}  // namespace

int main(int argc, char** argv) {
  std::ios::sync_with_stdio(false);
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
  xplain::server::Service service(opts);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::optional<Json> req = Json::parse(line);
    if (!req || req->kind() != Json::Kind::kObject) {
      emit_error(nullptr, "malformed request (want one JSON object per line)");
      continue;
    }
    const Json* op = req->find("op");
    const std::string opname =
        op && op->kind() == Json::Kind::kString ? op->as_str() : "";
    if (opname == "submit") {
      handle_submit(service, *req);
    } else if (opname == "stats") {
      Json e = stats_json(service.stats());
      e.set("event", "stats");
      emit(e);
    } else if (opname == "drain") {
      service.drain();
      Json e = Json::object();
      e.set("event", "drained");
      emit(e);
    } else if (opname == "shutdown") {
      Json e = Json::object();
      e.set("event", "bye");
      emit(e);
      break;
    } else {
      emit_error(req->find("id"),
                 "unknown op \"" + opname +
                     "\" (want submit | stats | drain | shutdown)");
    }
  }
  service.shutdown();
  return 0;
}
