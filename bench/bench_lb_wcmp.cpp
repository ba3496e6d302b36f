// LB case acceptance bench, Engine-driven: one declarative ExperimentSpec
// sweeps WCMP-vs-optimal across the whole scenario corpus (fat-tree
// k=4/6/8/16, Waxman WAN, line/star stress shapes), a second localizes the
// gap on the registry-default fat-tree(4) case, and two solver-scale
// probes report the k=8 and k=16 LP solve times — the k=16 probe also
// re-runs under a full Dantzig scan and gates the >= 1.5x speedup that
// partial pricing targets.
//
// The paper's claim under test is the pipeline's generality ("the same
// analyze -> localize -> explain workflow applies to heuristics beyond the
// two we show"): a domain from a different family — data-plane traffic
// load balancing over multipath topologies — must produce a nonzero
// heuristic-optimality gap that the subspace generator localizes, with no
// core-layer changes.
//
// Everything runs single-threaded on purpose: the BENCH_bench_lb_wcmp.json
// this emits is a committed baseline (bench/baselines/), and with one
// worker the lp_iterations counter is an exact, machine-independent
// reproduction target (tools/bench_compare.py gates it in CI).
#include <algorithm>
#include <iostream>
#include <limits>
#include <vector>

#include "bench_json.h"
#include "engine/engine.h"
#include "scenario/scenario.h"
#include "solver/simplex.h"
#include "te/maxflow.h"
#include "util/table.h"
#include "util/timer.h"

using namespace xplain;

namespace {

double feature(const JobResult& j, const char* key) {
  const auto it = j.pipeline.features.find(key);
  return it == j.pipeline.features.end() ? 0.0 : it->second;
}

}  // namespace

int main() {
  tools::BenchReport bench_report("bench_lb_wcmp");
  std::cout << "LB case — WCMP vs optimal splittable routing across the "
               "scenario corpus (xplain::Engine)\n\n";

  // --- 1. The corpus experiment: wcmp x default_corpus(), one pipeline
  // per scenario, Type-3 trends mined automatically. ---
  ExperimentSpec corpus;
  corpus.cases = {"wcmp"};
  corpus.scenarios = scenario::default_corpus();
  corpus.options.min_gap = 1.0;  // low: every scenario reports its true gap
  corpus.options.subspace.max_subspaces = 1;
  corpus.options.explain.samples = 100;
  corpus.options.explain.workers = 1;  // single-threaded: exact baseline
  corpus.workers = 1;
  corpus.grammar.p_threshold = 0.2;  // 6 scenarios: modest power

  util::Table t({"job", "commodities", "links", "best gap", "subspaces",
                 "seconds"});
  auto corpus_result = Engine().run(corpus, [&](const JobResult& j) {
    t.add_row({j.job.label(), util::format_double(feature(j, "num_commodities")),
               util::format_double(feature(j, "num_links")),
               util::format_double(j.pipeline.best_gap_found),
               std::to_string(j.pipeline.subspaces.size()),
               util::format_double(j.pipeline.wall_seconds)});
  });
  t.print(std::cout);

  double corpus_max_gap = 0.0;
  for (const auto& j : corpus_result.jobs)
    corpus_max_gap = std::max(corpus_max_gap, j.pipeline.best_gap_found);
  std::cout << "\nType-3 trends over the corpus ("
            << corpus_result.trends.observations.size() << " observations):\n";
  for (const auto& p : corpus_result.trends.predicates)
    std::cout << "  " << p.to_string() << " (rho=" << p.rho
              << ", p=" << p.p_value << ")\n";
  bench_report.metric("corpus_jobs",
                      static_cast<double>(corpus_result.jobs.size()));
  bench_report.metric("corpus_max_gap", corpus_max_gap);
  bench_report.metric("corpus_sweep_seconds", corpus_result.wall_seconds);
  bench_report.raw("corpus_experiment", corpus_result.to_json());

  // --- 2. Localization on the registry-default fat-tree(4) case (empty
  // scenario grid = the case's default instance). ---
  std::cout << "\nEngine on the default wcmp case (fat-tree(4)):\n";
  ExperimentSpec localize;
  localize.cases = {"wcmp"};
  localize.options.min_gap = 20.0;
  localize.options.subspace.max_subspaces = 2;
  localize.options.explain.samples = 400;
  localize.options.explain.workers = 1;
  localize.workers = 1;
  localize.run_generalizer = false;  // one instance: nothing to mine
  auto local_result = Engine().run(localize);

  const JobResult& local = local_result.jobs.at(0);
  int significant = 0;
  for (const auto& sub : local.pipeline.subspaces)
    significant += sub.significant;
  std::cout << "  " << local.pipeline.subspaces.size() << " subspace(s), "
            << significant << " significant, best analyzer gap "
            << local.pipeline.best_gap_found << ", max seed gap "
            << local.pipeline.max_gap() << ", " << local_result.wall_seconds
            << "s\n";
  bench_report.metric("pipeline_subspaces",
                      static_cast<double>(local.pipeline.subspaces.size()));
  bench_report.metric("pipeline_best_gap", local.pipeline.best_gap_found);
  bench_report.metric("pipeline_seconds", local_result.wall_seconds);

  // --- 3. Solver scale at k=8: the thousands-of-rows regime.  512
  // inter-rack commodities over the 80-switch fabric; one optimal-routing
  // solve at full load with the core tier at half capacity. ---
  scenario::ScenarioSpec k8;
  k8.kind = scenario::TopologyKind::kFatTree;
  k8.size = 8;
  te::TeInstance big = scenario::make_te_instance(
      k8, /*num_pairs=*/512, /*k_paths=*/3, /*d_max=*/100.0);
  big.skew_top_tier(/*lo=*/0.25, /*hi=*/1.0);
  util::Timer build_timer;
  te::MaxFlowSolver big_solver(big);
  const double build_seconds = build_timer.seconds();
  std::vector<double> x(big.input_dim(), big.d_max);
  x.back() = 0.5;
  util::Timer solve_timer;
  const double big_total = big_solver.solve_total(x).value_or(-1.0);
  const double solve_seconds = solve_timer.seconds();
  std::cout << "\nSolver scale, fat-tree(8) with " << big.num_pairs()
            << " commodities: LP has " << big_solver.problem().num_rows()
            << " rows x " << big_solver.problem().num_cols()
            << " cols (build " << build_seconds << "s, solve "
            << solve_seconds << "s, optimal total " << big_total << ")\n";
  bench_report.metric("k8_lp_rows",
                      static_cast<double>(big_solver.problem().num_rows()));
  bench_report.metric("k8_lp_cols",
                      static_cast<double>(big_solver.problem().num_cols()));
  bench_report.metric("k8_solve_seconds", solve_seconds);

  // --- 4. Solver scale at k=16: the ~8k-row x 12k-col regime partial
  // pricing exists for.  4096 inter-rack commodities over the 320-switch
  // fabric; the same cold solve is also run under a full Dantzig scan on
  // the same basis updates, so the speedup is measured in-bench and
  // machine-independently comparable. ---
  scenario::ScenarioSpec k16;
  k16.kind = scenario::TopologyKind::kFatTree;
  k16.size = 16;
  te::TeInstance huge = scenario::make_te_instance(
      k16, /*num_pairs=*/4096, /*k_paths=*/3, /*d_max=*/100.0);
  huge.skew_top_tier(/*lo=*/0.25, /*hi=*/1.0);
  util::Timer build16_timer;
  te::MaxFlowSolver huge_solver(huge);
  const double build16_seconds = build16_timer.seconds();
  const solver::LpProblem& lp16 = huge_solver.problem();

  solver::SimplexOptions fast;  // the defaults: partial pricing
  fast.want_duals = false;
  fast.want_basis = false;
  util::Timer k16_timer;
  const auto s16_fast = solver::solve_lp(lp16, fast);
  const double k16_solve_seconds = k16_timer.seconds();

  solver::SimplexOptions slow = fast;  // a Dantzig scan everywhere
  slow.partial_pricing_min_cols = std::numeric_limits<int>::max();
  util::Timer k16_base_timer;
  const auto s16_slow = solver::solve_lp(lp16, slow);
  const double k16_dantzig_eta_seconds = k16_base_timer.seconds();

  const double k16_speedup =
      k16_solve_seconds > 0.0 ? k16_dantzig_eta_seconds / k16_solve_seconds
                              : 0.0;
  const bool k16_agree =
      s16_fast.status == solver::Status::kOptimal &&
      s16_slow.status == solver::Status::kOptimal &&
      std::abs(s16_fast.obj - s16_slow.obj) <=
          1e-6 * (1.0 + std::abs(s16_slow.obj));
  std::cout << "\nSolver scale, fat-tree(16) with " << huge.num_pairs()
            << " commodities: LP has " << lp16.num_rows() << " rows x "
            << lp16.num_cols() << " cols (build " << build16_seconds
            << "s)\n  partial pricing " << k16_solve_seconds << "s ("
            << s16_fast.iterations << " pivots), dantzig "
            << k16_dantzig_eta_seconds << "s (" << s16_slow.iterations
            << " pivots), speedup " << k16_speedup << "x, objectives "
            << (k16_agree ? "agree" : "DISAGREE") << "\n";
  bench_report.metric("k16_lp_rows", static_cast<double>(lp16.num_rows()));
  bench_report.metric("k16_lp_cols", static_cast<double>(lp16.num_cols()));
  bench_report.metric("k16_solve_seconds", k16_solve_seconds);
  bench_report.metric("k16_dantzig_eta_seconds", k16_dantzig_eta_seconds);
  bench_report.metric("k16_speedup", k16_speedup);

  const bool ok = corpus_max_gap > 0.0 && !local.pipeline.subspaces.empty() &&
                  significant > 0 &&
                  local.pipeline.max_gap() >= localize.options.min_gap &&
                  big_total > 0.0 && k16_agree && k16_speedup >= 1.5;
  std::cout << "\nAcceptance: nonzero WCMP-vs-optimal gap somewhere in the "
               "corpus, localized to a significant subspace on fat-tree(4), "
               "k=8 solver run completes, k=16 partial-pricing solve matches "
               "the dantzig objective at >= 1.5x speed.\n"
            << (ok ? "[REPRODUCED]" : "[MISMATCH]") << "\n";
  return ok ? 0 : 1;
}
