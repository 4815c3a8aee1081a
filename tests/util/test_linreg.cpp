#include "util/linreg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/rng.hpp"

namespace hp {
namespace {

TEST(LinearFit, ExactLine) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{3, 5, 7, 9, 11};  // y = 1 + 2x
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_EQ(fit.n, 5u);
}

TEST(LinearFit, NoisyLineHasHighR2) {
  Rng rng{99};
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(i);
    y.push_back(0.5 + 1.5 * i + rng.normal(0.0, 1.0));
  }
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 1.5, 0.05);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(LinearFit, PureNoiseHasLowR2) {
  Rng rng{101};
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    x.push_back(i);
    y.push_back(rng.normal(0.0, 1.0));
  }
  EXPECT_LT(linear_fit(x, y).r_squared, 0.1);
}

TEST(LinearFit, RejectsBadInput) {
  EXPECT_THROW(linear_fit({1.0}, {2.0}), std::invalid_argument);
  EXPECT_THROW(linear_fit({1.0, 2.0}, {2.0}), std::invalid_argument);
  EXPECT_THROW(linear_fit({3.0, 3.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(LinearFit, RejectsNonFinitePoints) {
  // log10 of an empty bucket is -inf; the fit must refuse it loudly
  // instead of returning a NaN slope.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(linear_fit({0.0, 1.0}, {-inf, 2.0}), std::invalid_argument);
  EXPECT_THROW(linear_fit({-inf, 1.0}, {0.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(linear_fit({0.0, 1.0}, {nan, 2.0}), std::invalid_argument);
}

TEST(PowerLawFit, RecoversSyntheticExponent) {
  // frequencies[d] = round(1000 * d^-2.5)
  std::vector<std::size_t> freq(30, 0);
  for (std::size_t d = 1; d < freq.size(); ++d) {
    freq[d] = static_cast<std::size_t>(
        std::llround(1000.0 * std::pow(static_cast<double>(d), -2.5)));
  }
  const PowerLawFit fit = power_law_fit(freq);
  EXPECT_NEAR(fit.gamma, 2.5, 0.15);  // rounding distorts the tail
  EXPECT_NEAR(fit.log10_c, 3.0, 0.2);
  EXPECT_GT(fit.r_squared, 0.95);
}

TEST(PowerLawFit, SkipsZeroFrequencies) {
  std::vector<std::size_t> freq{0, 100, 0, 4, 0, 1};  // gaps are fine
  const PowerLawFit fit = power_law_fit(freq);
  EXPECT_EQ(fit.n, 3u);
  EXPECT_GT(fit.gamma, 0.0);
}

TEST(PowerLawFit, RejectsTooFewPoints) {
  EXPECT_THROW(power_law_fit({0, 5}), std::invalid_argument);
  EXPECT_THROW(power_law_fit({}), std::invalid_argument);
}

TEST(PowerLawFit, ZeroCountBinsNeverPoisonTheFit) {
  // A histogram whose frequencies() span includes empty buckets (and
  // the un-loggable degree-0 bin) must produce a finite fit: the empty
  // bins are skipped, never log10'd into -inf.
  const std::vector<std::size_t> freq{7, 0, 100, 0, 0, 10, 0, 1, 0};
  const PowerLawFit fit = power_law_fit(freq);
  EXPECT_EQ(fit.n, 3u);  // degrees 2, 5, 7 only
  EXPECT_TRUE(std::isfinite(fit.gamma));
  EXPECT_TRUE(std::isfinite(fit.log10_c));
  EXPECT_TRUE(std::isfinite(fit.r_squared));
}

TEST(ExponentialFit, ZeroCountBinsNeverPoisonTheFit) {
  const std::vector<std::size_t> freq{3, 0, 50, 0, 5, 0, 0, 2};
  const ExponentialFit fit = exponential_fit(freq);
  EXPECT_EQ(fit.n, 3u);
  EXPECT_TRUE(std::isfinite(fit.lambda));
  EXPECT_TRUE(std::isfinite(fit.log10_c));
}

TEST(PowerLawFit, DegreeZeroOnlyPopulationThrowsInsteadOfInf) {
  // Every observation at degree 0 (plus one lone positive bin): fewer
  // than two usable points must be a clean error, not a silent -inf.
  EXPECT_THROW(power_law_fit({42, 0, 0, 3}), std::invalid_argument);
}

TEST(PowerLawFit, FittableNeedsTwoPositiveValues) {
  EXPECT_FALSE(fittable({}));
  EXPECT_FALSE(fittable({0, 5}));
  EXPECT_FALSE(fittable({42, 0, 0, 3}));  // degree 0 never counts
  EXPECT_TRUE(fittable({0, 5, 0, 1}));
  EXPECT_TRUE(fittable({7, 0, 100, 0, 0, 10, 0, 1, 0}));
}

TEST(ExponentialFit, RecoversSyntheticRate) {
  // frequencies[d] = round(10000 * exp(-0.4 d))
  std::vector<std::size_t> freq(20, 0);
  for (std::size_t d = 1; d < freq.size(); ++d) {
    freq[d] = static_cast<std::size_t>(
        std::llround(10000.0 * std::exp(-0.4 * static_cast<double>(d))));
  }
  const ExponentialFit fit = exponential_fit(freq);
  EXPECT_NEAR(fit.lambda, 0.4, 0.05);
  EXPECT_GT(fit.r_squared, 0.97);
}

TEST(Fits, PowerLawDataFitsPowerBetterThanExponential) {
  std::vector<std::size_t> freq(40, 0);
  for (std::size_t d = 1; d < freq.size(); ++d) {
    freq[d] = static_cast<std::size_t>(
        std::llround(5000.0 * std::pow(static_cast<double>(d), -2.0)));
  }
  const PowerLawFit p = power_law_fit(freq);
  const ExponentialFit e = exponential_fit(freq);
  EXPECT_GT(p.r_squared, e.r_squared);
}

}  // namespace
}  // namespace hp
