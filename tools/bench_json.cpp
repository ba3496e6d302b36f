#include "bench_json.h"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "solver/lp.h"
#include "util/timer.h"

namespace xplain::tools {

struct BenchReport::Impl {
  std::string name;
  util::Timer timer;
  solver::LpCounters start;
  /// (key, JSON text): metric() and count() values in call order; write()
  /// puts the raw() documents after them.
  std::vector<std::pair<std::string, std::string>> extra;
  std::vector<std::pair<std::string, std::string>> raw;
  std::vector<std::string> exact;
  bool written = false;
};

BenchReport::BenchReport(std::string name) : impl_(new Impl) {
  impl_->name = std::move(name);
  impl_->start = solver::lp_counters();
}

BenchReport::~BenchReport() {
  write();
  delete impl_;
}

void BenchReport::metric(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(9);
  os << value;
  impl_->extra.emplace_back(key, os.str());
}

void BenchReport::count(const std::string& key, long value) {
  impl_->extra.emplace_back(key, std::to_string(value));
  impl_->exact.push_back(key);
}

void BenchReport::raw(const std::string& key, std::string json_value) {
  impl_->raw.emplace_back(key, std::move(json_value));
}

void BenchReport::write() {
  if (impl_->written) return;
  impl_->written = true;
  const double wall = impl_->timer.seconds();
  const solver::LpCounters end = solver::lp_counters();
  std::ostringstream os;
  os.precision(9);
  os << "{\n"
     << "  \"bench\": \"" << impl_->name << "\",\n"
     << "  \"wall_seconds\": " << wall;
  for (const solver::LpCounterField& f : solver::kLpCounterFields)
    os << ",\n  \"" << f.key
       << "\": " << end.*f.member - impl_->start.*f.member;
  for (const auto& [k, v] : impl_->extra) os << ",\n  \"" << k << "\": " << v;
  for (const auto& [k, v] : impl_->raw) os << ",\n  \"" << k << "\": " << v;
  os << ",\n  \"exact\": [";
  for (std::size_t i = 0; i < impl_->exact.size(); ++i)
    os << (i ? ", " : "") << '"' << impl_->exact[i] << '"';
  os << "]\n}\n";
  std::ofstream out("BENCH_" + impl_->name + ".json");
  out << os.str();
}

}  // namespace xplain::tools
