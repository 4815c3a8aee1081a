#include "util/linreg.hpp"

#include <cmath>
#include <stdexcept>

namespace hp {

LinearFit linear_fit(const std::vector<double>& x,
                     const std::vector<double>& y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument{"linear_fit: x and y must have equal size"};
  }
  const std::size_t n = x.size();
  if (n < 2) {
    throw std::invalid_argument{"linear_fit: need at least two points"};
  }
  // Reject -inf/NaN up front: a caller that takes log10 of an empty
  // bucket would otherwise poison the sums and come back with a NaN
  // slope instead of an error.
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i]) || !std::isfinite(y[i])) {
      throw std::invalid_argument{
          "linear_fit: non-finite point (log of a zero-count bucket?)"};
    }
  }
  double sx = 0.0, sy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
  }
  if (sxx == 0.0) {
    throw std::invalid_argument{"linear_fit: x values are all equal"};
  }
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.n = n;

  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double pred = fit.intercept + fit.slope * x[i];
    ss_res += (y[i] - pred) * (y[i] - pred);
    ss_tot += (y[i] - my) * (y[i] - my);
  }
  fit.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

namespace {
/// Collect the log-log / semi-log points with positive frequency.
/// Zero-count bins and the d=0 bin are skipped here -- log10 of either
/// would be -inf/undefined -- so the fits below only ever see finite
/// points (linear_fit still rejects non-finite input defensively).
void collect_points(const std::vector<std::size_t>& frequencies,
                    bool log_x, std::vector<double>& xs,
                    std::vector<double>& ys) {
  for (std::size_t d = 1; d < frequencies.size(); ++d) {
    if (frequencies[d] == 0) continue;
    xs.push_back(log_x ? std::log10(static_cast<double>(d))
                       : static_cast<double>(d));
    ys.push_back(std::log10(static_cast<double>(frequencies[d])));
  }
}
}  // namespace

bool fittable(const std::vector<std::size_t>& frequencies) {
  std::size_t points = 0;
  for (std::size_t d = 1; d < frequencies.size() && points < 2; ++d) {
    points += frequencies[d] != 0 ? 1 : 0;
  }
  return points >= 2;
}

PowerLawFit power_law_fit(const std::vector<std::size_t>& frequencies) {
  std::vector<double> xs, ys;
  collect_points(frequencies, /*log_x=*/true, xs, ys);
  if (xs.size() < 2) {
    throw std::invalid_argument{
        "power_law_fit: need at least two degrees with nonzero frequency"};
  }
  const LinearFit lin = linear_fit(xs, ys);
  PowerLawFit fit;
  fit.log10_c = lin.intercept;
  fit.gamma = -lin.slope;
  fit.r_squared = lin.r_squared;
  fit.n = lin.n;
  return fit;
}

ExponentialFit exponential_fit(const std::vector<std::size_t>& frequencies) {
  std::vector<double> xs, ys;
  collect_points(frequencies, /*log_x=*/false, xs, ys);
  if (xs.size() < 2) {
    throw std::invalid_argument{
        "exponential_fit: need at least two degrees with nonzero frequency"};
  }
  const LinearFit lin = linear_fit(xs, ys);
  ExponentialFit fit;
  fit.log10_c = lin.intercept;
  // Semi-log slope is -lambda * log10(e).
  fit.lambda = -lin.slope / std::log10(std::exp(1.0));
  fit.r_squared = lin.r_squared;
  fit.n = lin.n;
  return fit;
}

}  // namespace hp
