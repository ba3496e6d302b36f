#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <utility>

#include "analyzer/analyzer.h"
#include "bench.h"
#include "xplain/case.h"

namespace perfbench {

namespace {

using xplain::solver::LpCounters;
using xplain::solver::lp_counters;
using xplain::util::MutexLock;

constexpr const char kPrefix[] = "traced:";

std::atomic<long> g_foreign_calls{0};

void add_lp(Span& s, const LpCounters& d) {
  s.lp_solves += d.solves;
  s.lp_pivots += d.iterations;
  s.lp_warm += d.warm_solves;
  s.lp_priced += d.columns_priced;
}

/// Leaf calls (gap or oracle) folded under one parent span.
struct Leaf {
  long calls = 0;
  long accepted = 0;
  double first = 0.0;
  double last = 0.0;
  double busy = 0.0;
  LpCounters lp{};

  void add(double t0, double t1, const LpCounters& d, bool ok) {
    if (calls == 0) first = t0;
    last = t1;
    ++calls;
    accepted += ok ? 1 : 0;
    busy += t1 - t0;
    lp.solves += d.solves;
    lp.iterations += d.iterations;
    lp.warm_solves += d.warm_solves;
    lp.columns_priced += d.columns_priced;
  }
};

struct Call {
  double t = 0.0;
  LpCounters lp{};
};

Call begin_call() { return {now_s(), lp_counters()}; }

/// One pipeline run's trace state, shared by its evaluator, analyzer and
/// oracle decorators; the job span closes when the last of them is gone.
class JobTrace {
 public:
  JobTrace(Tracer* tracer, std::string label)
      : tracer_(tracer),
        label_(std::move(label)),
        thread_(std::this_thread::get_id()),
        id_(tracer->next_id()),
        parent_(tracer->current_pass()),
        start_(begin_call()) {}

  ~JobTrace() {
    try {
      finish();
    } catch (...) {
      // Losing a job's spans shows up as a reconciliation failure.
    }
  }

  JobTrace(const JobTrace&) = delete;
  JobTrace& operator=(const JobTrace&) = delete;

  void mark_compiled() {
    MutexLock lock(&mu_);
    compiled_ = now_s();
  }

  void end_gap(const Call& c) {
    const double t1 = now_s();
    const LpCounters d = lp_delta(c.lp, lp_counters());
    MutexLock lock(&mu_);
    check_thread();
    Leaf& leaf = in_analyzer_       ? analyzer_.back().gap
                 : explain_start_ >= 0 ? explain_gap_
                                       : subspace_gap_;
    leaf.add(c.t, t1, d, true);
  }

  void end_oracle(const Call& c, bool ok) {
    const double t1 = now_s();
    const LpCounters d = lp_delta(c.lp, lp_counters());
    MutexLock lock(&mu_);
    check_thread();
    if (explain_start_ < 0) explain_start_ = c.t;
    oracle_.add(c.t, t1, d, ok);
  }

  Call begin_analyzer() {
    {
      MutexLock lock(&mu_);
      check_thread();
      in_analyzer_ = true;
      analyzer_.emplace_back();
    }
    return begin_call();
  }

  void end_analyzer(const Call& c, bool found) {
    const double t1 = now_s();
    const LpCounters d = lp_delta(c.lp, lp_counters());
    MutexLock lock(&mu_);
    in_analyzer_ = false;
    AnalyzerCall& a = analyzer_.back();
    a.start = c.t;
    a.end = t1;
    a.lp = d;
    a.found = found;
  }

 private:
  struct AnalyzerCall {
    double start = 0.0;
    double end = 0.0;
    LpCounters lp{};
    bool found = false;
    Leaf gap;
  };

  void check_thread() XPLAIN_REQUIRES(mu_) {
    if (std::this_thread::get_id() != thread_)
      g_foreign_calls.fetch_add(1, std::memory_order_relaxed);
  }

  Span make_span(const char* name, int parent, double start, double end) {
    Span s;
    s.name = name;
    s.id = tracer_->next_id();
    s.parent = parent;
    s.job = id_;
    s.start = start;
    s.end = end;
    s.busy = end - start;
    return s;
  }

  void leaf_span(std::vector<Span>& out, const char* name, int parent,
                 const Leaf& leaf) {
    if (leaf.calls == 0) return;
    Span s = make_span(name, parent, leaf.first, leaf.last);
    s.calls = leaf.calls;
    s.busy = leaf.busy;
    s.found = leaf.accepted;
    add_lp(s, leaf.lp);
    out.push_back(std::move(s));
  }

  void finish() {
    const Call end = begin_call();
    MutexLock lock(&mu_);
    check_thread();
    std::vector<Span> out;
    Span job;
    job.name = "job";
    job.label = label_;
    job.id = id_;
    job.parent = parent_;
    job.job = id_;
    job.start = start_.t;
    job.end = end.t;
    job.busy = end.t - start_.t;
    add_lp(job, lp_delta(start_.lp, end.lp));
    out.push_back(job);

    const double sub_start = compiled_ >= 0 ? compiled_ : start_.t;
    const double sub_end = explain_start_ >= 0 ? explain_start_ : end.t;
    Span stage = make_span("stage.subspace", id_, sub_start, sub_end);
    const int stage_id = stage.id;
    out.push_back(std::move(stage));
    leaf_span(out, "gap", stage_id, subspace_gap_);
    for (const AnalyzerCall& a : analyzer_) {
      Span s = make_span("analyzer", stage_id, a.start, a.end);
      s.found = a.found ? 1 : 0;
      add_lp(s, a.lp);
      const int sid = s.id;
      out.push_back(std::move(s));
      leaf_span(out, "gap", sid, a.gap);
    }
    if (explain_start_ >= 0) {
      Span ex = make_span("stage.explain", id_, explain_start_, end.t);
      const int ex_id = ex.id;
      out.push_back(std::move(ex));
      leaf_span(out, "oracle", ex_id, oracle_);
      leaf_span(out, "gap", ex_id, explain_gap_);
    }
    tracer_->add(std::move(out));
  }

  Tracer* const tracer_;
  const std::string label_;
  const std::thread::id thread_;
  const int id_;
  const int parent_;
  const Call start_;

  xplain::util::Mutex mu_;
  double compiled_ XPLAIN_GUARDED_BY(mu_) = -1.0;
  double explain_start_ XPLAIN_GUARDED_BY(mu_) = -1.0;
  bool in_analyzer_ XPLAIN_GUARDED_BY(mu_) = false;
  std::vector<AnalyzerCall> analyzer_ XPLAIN_GUARDED_BY(mu_);
  Leaf subspace_gap_ XPLAIN_GUARDED_BY(mu_);
  Leaf explain_gap_ XPLAIN_GUARDED_BY(mu_);
  Leaf oracle_ XPLAIN_GUARDED_BY(mu_);
};

/// The job whose make_evaluator ran last on this thread: run_pipeline
/// calls make_evaluator, make_analyzer and make_oracle back to back.
thread_local std::weak_ptr<JobTrace> t_job;

class TracedEvaluator : public xplain::analyzer::GapEvaluator {
 public:
  TracedEvaluator(std::unique_ptr<xplain::analyzer::GapEvaluator> inner,
                  std::shared_ptr<JobTrace> job)
      : inner_(std::move(inner)), job_(std::move(job)) {}

  int dim() const override { return inner_->dim(); }
  xplain::analyzer::Box input_box() const override {
    return inner_->input_box();
  }
  double gap(const std::vector<double>& x) const override {
    const Call c = begin_call();
    const double g = inner_->gap(x);
    job_->end_gap(c);
    return g;
  }
  std::vector<double> quantize(const std::vector<double>& x) const override {
    return inner_->quantize(x);
  }
  std::vector<std::string> dim_names() const override {
    return inner_->dim_names();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<xplain::analyzer::GapEvaluator> inner_;
  std::shared_ptr<JobTrace> job_;
};

class TracedAnalyzer : public xplain::analyzer::HeuristicAnalyzer {
 public:
  TracedAnalyzer(std::unique_ptr<xplain::analyzer::HeuristicAnalyzer> inner,
                 std::shared_ptr<JobTrace> job)
      : inner_(std::move(inner)), job_(std::move(job)) {}

  std::optional<xplain::analyzer::AdversarialExample> find_adversarial(
      const xplain::analyzer::GapEvaluator& eval, double min_gap,
      const std::vector<xplain::analyzer::Box>& excluded) override {
    const Call c = job_->begin_analyzer();
    auto out = inner_->find_adversarial(eval, min_gap, excluded);
    job_->end_analyzer(c, out.has_value());
    return out;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<xplain::analyzer::HeuristicAnalyzer> inner_;
  std::shared_ptr<JobTrace> job_;
};

class TracedCase : public xplain::HeuristicCase {
 public:
  TracedCase(std::shared_ptr<xplain::HeuristicCase> inner, std::string label,
             Tracer* tracer)
      : inner_(std::move(inner)), label_(std::move(label)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  std::string description() const override { return inner_->description(); }

  std::unique_ptr<xplain::analyzer::GapEvaluator> make_evaluator()
      const override {
    auto job = std::make_shared<JobTrace>(tracer_, label_);
    t_job = job;
    return std::make_unique<TracedEvaluator>(inner_->make_evaluator(),
                                             std::move(job));
  }

  std::unique_ptr<xplain::analyzer::HeuristicAnalyzer> make_analyzer(
      std::uint64_t seed_salt) const override {
    auto inner = inner_->make_analyzer(seed_salt);
    std::shared_ptr<JobTrace> job = t_job.lock();
    if (!job) return inner;
    return std::make_unique<TracedAnalyzer>(std::move(inner), std::move(job));
  }

  const xplain::flowgraph::FlowNetwork& network() const override {
    return inner_->network();
  }

  xplain::explain::FlowOracle make_oracle() const override {
    xplain::explain::FlowOracle inner = inner_->make_oracle();
    std::shared_ptr<JobTrace> job = t_job.lock();
    t_job.reset();
    if (!job) return inner;
    job->mark_compiled();
    return [inner = std::move(inner), job = std::move(job)](
               const std::vector<double>& x, std::vector<double>& h,
               std::vector<double>& b) {
      const Call c = begin_call();
      const bool ok = inner(x, h, b);
      job->end_oracle(c, ok);
      return ok;
    };
  }

  xplain::analyzer::Box input_box() const override {
    return inner_->input_box();
  }
  std::vector<std::string> dim_names() const override {
    return inner_->dim_names();
  }
  std::map<std::string, double> features() const override {
    return inner_->features();
  }
  double gap_scale() const override { return inner_->gap_scale(); }

 private:
  std::shared_ptr<xplain::HeuristicCase> inner_;
  std::string label_;
  Tracer* tracer_;
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

LpCounters lp_delta(const LpCounters& a, const LpCounters& b) {
  LpCounters d;
  d.solves = b.solves - a.solves;
  d.iterations = b.iterations - a.iterations;
  d.warm_solves = b.warm_solves - a.warm_solves;
  d.columns_priced = b.columns_priced - a.columns_priced;
  d.candidate_refills = b.candidate_refills - a.candidate_refills;
  return d;
}

long foreign_thread_calls() {
  return g_foreign_calls.load(std::memory_order_relaxed);
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::string Tracer::key(const std::string& case_name) {
  return kPrefix + case_name;
}

std::string Tracer::unkey(std::string text) {
  const std::string prefix = kPrefix;
  for (std::size_t pos = text.find(prefix); pos != std::string::npos;
       pos = text.find(prefix, pos))
    text.erase(pos, prefix.size());
  return text;
}

void Tracer::register_cases(const std::vector<std::string>& case_names) {
  for (const std::string& name : case_names) {
    xplain::registry().add(
        key(name),
        [this, name](const xplain::scenario::ScenarioSpec* spec)
            -> std::shared_ptr<xplain::HeuristicCase> {
          Span s;
          s.name = "case.build";
          s.label = name + "@" + (spec ? spec->display_name() : "default");
          s.id = next_id();
          s.parent = current_pass();
          const Call c = begin_call();
          std::shared_ptr<xplain::HeuristicCase> inner =
              spec ? xplain::registry().create(name, *spec)
                   : xplain::registry().create(name);
          s.start = c.t;
          s.end = now_s();
          s.busy = s.seconds();
          add_lp(s, lp_delta(c.lp, lp_counters()));
          const std::string label = s.label;
          add({std::move(s)});
          if (!inner) return nullptr;
          return std::make_shared<TracedCase>(std::move(inner), label, this);
        });
  }
}

int Tracer::begin(const std::string& name, int parent) {
  const Call c = begin_call();
  MutexLock lock(&mu_);
  Span s;
  s.name = name;
  s.id = next_id_++;
  s.parent = parent;
  s.start = c.t;
  // Holds the start snapshot until end() turns it into a delta.
  s.lp_solves = c.lp.solves;
  s.lp_pivots = c.lp.iterations;
  s.lp_warm = c.lp.warm_solves;
  s.lp_priced = c.lp.columns_priced;
  open_.push_back(std::move(s));
  return open_.back().id;
}

void Tracer::end(int id) {
  const Call c = begin_call();
  MutexLock lock(&mu_);
  for (auto it = open_.begin(); it != open_.end(); ++it) {
    if (it->id != id) continue;
    Span s = std::move(*it);
    open_.erase(it);
    s.end = c.t;
    s.busy = s.seconds();
    s.lp_solves = c.lp.solves - s.lp_solves;
    s.lp_pivots = c.lp.iterations - s.lp_pivots;
    s.lp_warm = c.lp.warm_solves - s.lp_warm;
    s.lp_priced = c.lp.columns_priced - s.lp_priced;
    if (pass_ == id) pass_ = -1;
    spans_.push_back(std::move(s));
    return;
  }
}

int Tracer::begin_pass(const std::string& name) {
  const int id = begin(name, -1);
  MutexLock lock(&mu_);
  pass_ = id;
  return id;
}

int Tracer::next_id() {
  MutexLock lock(&mu_);
  return next_id_++;
}

int Tracer::current_pass() const {
  MutexLock lock(&mu_);
  return pass_;
}

void Tracer::add(std::vector<Span> spans) {
  MutexLock lock(&mu_);
  for (Span& s : spans) spans_.push_back(std::move(s));
}

std::vector<Span> Tracer::take() {
  MutexLock lock(&mu_);
  std::vector<Span> out = std::move(spans_);
  spans_.clear();
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  if (!f) return false;
  f << "[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "\"id\": %d, \"parent\": %d, \"job\": %d, \"start\": %.9f, "
                  "\"end\": %.9f, \"calls\": %ld, \"busy_s\": %.9f, "
                  "\"found\": %ld, \"lp_solves\": %ld, \"lp_pivots\": %ld, "
                  "\"lp_warm\": %ld, \"lp_priced\": %ld",
                  s.id, s.parent, s.job, s.start, s.end, s.calls, s.busy,
                  s.found, s.lp_solves, s.lp_pivots, s.lp_warm, s.lp_priced);
    f << "{\"name\": " << json_str(s.name) << ", \"label\": "
      << json_str(s.label) << ", " << buf << "}"
      << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << "]\n";
  return static_cast<bool>(f);
}

LayerTotals summarize(const std::vector<Span>& spans) {
  std::map<int, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  const auto parent_name = [&](const Span& s) -> std::string {
    auto it = by_id.find(s.parent);
    return it == by_id.end() ? std::string() : it->second->name;
  };
  LayerTotals t;
  double subspace_stage = 0.0;
  for (const Span& s : spans) {
    if (s.name == "pass") {
      t.lp_solves += s.lp_solves;
      t.lp_pivots += s.lp_pivots;
      t.lp_warm += s.lp_warm;
      t.lp_priced += s.lp_priced;
    } else if (s.name == "job") {
      t.job_seconds.push_back(s.seconds());
      t.job_busy += s.seconds();
    } else if (s.name == "case.build") {
      ++t.builds;
      t.build_s += s.seconds();
    } else if (s.name == "analyzer") {
      ++t.analyzer_calls;
      t.analyzer_found += s.found;
      t.analyzer_busy += s.seconds();
    } else if (s.name == "stage.subspace") {
      subspace_stage += s.seconds();
    } else if (s.name == "stage.explain") {
      t.explain_busy += s.seconds();
    } else if (s.name == "oracle") {
      t.oracle_calls += s.calls;
      t.oracle_accepted += s.found;
      t.oracle_busy += s.busy;
    } else if (s.name == "generalize") {
      t.generalize_busy += s.seconds();
    } else if (s.name == "gap") {
      t.gap_calls += s.calls;
      t.gap_busy += s.busy;
      t.gap_solves += s.lp_solves;
      const std::string p = parent_name(s);
      if (p == "analyzer")
        t.analyzer_gap_calls += s.calls;
      else if (p == "stage.explain")
        t.explain_gap_calls += s.calls;
      else
        t.subspace_gap_calls += s.calls;
    }
  }
  t.subspace_self = subspace_stage - t.analyzer_busy;
  return t;
}

}  // namespace perfbench
