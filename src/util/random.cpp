#include "util/random.h"

#include <cassert>

namespace xplain::util {

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int Rng::uniform_int(int lo, int hi) {
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

std::vector<double> Rng::uniform_point(const std::vector<double>& lo,
                                       const std::vector<double>& hi) {
  std::vector<double> p;
  uniform_point(lo, hi, p);
  return p;
}

void Rng::uniform_point(const std::vector<double>& lo,
                        const std::vector<double>& hi,
                        std::vector<double>& out) {
  assert(lo.size() == hi.size());
  out.resize(lo.size());
  for (std::size_t i = 0; i < lo.size(); ++i) out[i] = uniform(lo[i], hi[i]);
}

Rng Rng::fork() {
  // SplitMix-style decorrelation of the child seed.
  std::uint64_t s = engine_();
  s ^= s >> 30;
  s *= 0xBF58476D1CE4E5B9ull;
  s ^= s >> 27;
  return Rng(s);
}

}  // namespace xplain::util
