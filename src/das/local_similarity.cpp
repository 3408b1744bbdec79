#include "dassa/das/local_similarity.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace dassa::das {

namespace {

/// nz[u] = number of non-zero samples in row[u-M .. u+M], for every
/// centre u whose window fits in the row. Integer counts are exact, so
/// "this window is all zeros" never hinges on a running floating-point
/// sum landing on exactly 0.
void nonzero_counts(const double* row, std::size_t n, std::size_t M,
                    std::vector<std::uint32_t>& nz) {
  nz.resize(n);
  std::uint32_t c = 0;
  for (std::size_t i = 0; i < 2 * M + 1; ++i) c += row[i] != 0.0 ? 1U : 0U;
  nz[M] = c;
  for (std::size_t u = M + 1; u + M < n; ++u) {
    c += row[u + M] != 0.0 ? 1U : 0U;
    c -= row[u - M - 1] != 0.0 ? 1U : 0U;
    nz[u] = c;
  }
}

double energy(const double* v, std::size_t w) {
  double e = 0.0;
  for (std::size_t j = 0; j < w; ++j) e += v[j] * v[j];
  return e;
}

/// A running sum is recomputed directly once the squared magnitude slid
/// through it since its last direct evaluation exceeds this multiple of
/// its current value (or the sum is <= 0). That caps its relative
/// rounding error near eps * kDriftLimit: after a burst leaves a window,
/// the sums are not left carrying eps * burst^2 of cancellation error.
constexpr double kDriftLimit = 64.0;

/// True when a running energy `e` must be recomputed: rounding may have
/// driven it to <= 0, or the slid magnitude `acc` dwarfs it.
bool stale(double e, double acc) { return !(e * kDriftLimit > acc); }

/// Running sums against one neighbour channel (+K or -K), one entry
/// per lag k = l + L.
struct Side {
  const double* y = nullptr;
  std::vector<std::uint32_t> nz;
  std::vector<double> sxy;  ///< sum of x*y over the lag-k window pair
  std::vector<double> syy;  ///< sum of y*y over the lag-k window
  std::vector<double> acc;  ///< y*y slid in or out since syy was direct
};

/// Per-thread scratch, reused across rows so no cell allocates.
struct Scratch {
  std::vector<std::uint32_t> nz_x;
  Side up;
  Side down;
};

/// The Algorithm 2 row kernel: fills one channel's cells.
class RowKernel {
 public:
  RowKernel(const LocalSimilarityParams& p, std::size_t col0)
      : M_(p.window_half),
        L_(p.lag_half),
        K_(static_cast<std::ptrdiff_t>(p.channel_offset)),
        W_(2 * p.window_half + 1),
        lags_(2 * p.lag_half + 1),
        phase_(col0 % kSimilarityAnchor) {}

  void operator()(const core::Stencil& s, std::span<double> out) const {
    std::fill(out.begin(), out.end(), 0.0);
    const std::size_t n = out.size();
    const std::size_t reach = M_ + L_;
    // Edge cells (no +-K neighbour, or a span +-(M+L) leaving the
    // block) return 0: no similarity evidence.
    if (!s.in_bounds(0, -K_) || !s.in_bounds(0, K_) || n < 2 * reach + 1) {
      return;
    }
    thread_local Scratch scratch;
    const double* x = s.row_span(0).data();
    nonzero_counts(x, n, M_, scratch.nz_x);
    attach(scratch.up, s.row_span(K_).data(), n);
    attach(scratch.down, s.row_span(-K_).data(), n);

    double sxx = 0.0;
    double acc_x = 0.0;  // x*x slid in or out since sxx was direct
    const auto anchor = [&](std::size_t t) {
      sxx = energy(x + t - M_, W_);
      acc_x = 0.0;
      direct(scratch.up, x, t);
      direct(scratch.down, x, t);
    };
    for (std::size_t t = reach; t + reach < n; ++t) {
      if (t == reach || (phase_ + t) % kSimilarityAnchor == 0) {
        anchor(t);
      } else {
        const double xin = x[t + M_];
        const double xout = x[t - M_ - 1];
        sxx += xin * xin - xout * xout;
        acc_x += xin * xin + xout * xout;
        slide(scratch.up, xin, xout, t);
        slide(scratch.down, xin, xout, t);
      }
      if (scratch.nz_x[t] == 0) continue;  // all-zero own window
      if (stale(sxx, acc_x)) anchor(t);
      if (!(sxx > 0.0)) continue;
      const double c_plus = std::sqrt(best(scratch.up, x, t) / sxx);
      const double c_minus = std::sqrt(best(scratch.down, x, t) / sxx);
      out[t] = 0.5 * (c_plus + c_minus);
    }
  }

 private:
  void attach(Side& side, const double* y, std::size_t n) const {
    side.y = y;
    nonzero_counts(y, n, M_, side.nz);
    side.sxy.resize(lags_);
    side.syy.resize(lags_);
    side.acc.resize(lags_);
  }

  /// Compute every lag's sums at cell t directly.
  void direct(Side& side, const double* x, std::size_t t) const {
    const double* x0 = x + t - M_;
    const double* yb = side.y + t - M_ - L_;
    double* sxy = side.sxy.data();
    double* syy = side.syy.data();
    std::fill_n(sxy, lags_, 0.0);
    std::fill_n(syy, lags_, 0.0);
    std::fill_n(side.acc.data(), lags_, 0.0);
    for (std::size_t j = 0; j < W_; ++j) {
      const double xv = x0[j];
      const double* yj = yb + j;
      for (std::size_t k = 0; k < lags_; ++k) {
        sxy[k] += xv * yj[k];
        syy[k] += yj[k] * yj[k];
      }
    }
  }

  /// Advance every lag's sums from cell t-1 to cell t.
  void slide(Side& side, double xin, double xout, std::size_t t) const {
    const double* yin = side.y + t + M_ - L_;
    const double* yout = side.y + t - M_ - L_ - 1;
    double* sxy = side.sxy.data();
    double* syy = side.syy.data();
    double* acc = side.acc.data();
    for (std::size_t k = 0; k < lags_; ++k) {
      const double in2 = yin[k] * yin[k];
      const double out2 = yout[k] * yout[k];
      sxy[k] += xin * yin[k] - xout * yout[k];
      syy[k] += in2 - out2;
      acc[k] += in2 + out2;
    }
  }

  /// max over lags of (x.y)^2 / (y.y) at cell t. Lags whose neighbour
  /// window is all zeros contribute 0; a stale lag is recomputed
  /// directly first, so the ratio is never Inf or NaN.
  double best(Side& side, const double* x, std::size_t t) const {
    const std::uint32_t* nz = side.nz.data() + (t - L_);
    double b = 0.0;
    for (std::size_t k = 0; k < lags_; ++k) {
      if (nz[k] == 0) continue;
      if (stale(side.syy[k], side.acc[k])) refresh(side, x, t, k);
      const double e = side.syy[k];
      if (!(e > 0.0)) continue;
      b = std::max(b, side.sxy[k] * side.sxy[k] / e);
    }
    return b;
  }

  /// Recompute lag k's sums at cell t directly (same summation order
  /// as direct()).
  void refresh(Side& side, const double* x, std::size_t t,
               std::size_t k) const {
    const double* x0 = x + t - M_;
    const double* yk = side.y + t - M_ - L_ + k;
    double sxy = 0.0;
    double syy = 0.0;
    for (std::size_t j = 0; j < W_; ++j) {
      sxy += x0[j] * yk[j];
      syy += yk[j] * yk[j];
    }
    side.sxy[k] = sxy;
    side.syy[k] = syy;
    side.acc[k] = 0.0;
  }

  std::size_t M_;
  std::size_t L_;
  std::ptrdiff_t K_;
  std::size_t W_;
  std::size_t lags_;
  std::size_t phase_;  ///< global column of local column 0, mod B
};

void check_params(const LocalSimilarityParams& p) {
  DASSA_CHECK(p.window_half >= 1, "similarity window must hold samples");
  DASSA_CHECK(p.channel_offset >= 1,
              "similarity needs a non-zero channel offset");
  DASSA_CHECK(p.channel_offset <=
                  static_cast<std::size_t>(
                      std::numeric_limits<std::ptrdiff_t>::max()),
              "similarity channel offset overflows");
  // The kernel's span 2(M+L)+1 must fit in a size_t.
  constexpr std::size_t kMaxReach =
      (std::numeric_limits<std::size_t>::max() - 1) / 2;
  DASSA_CHECK(p.lag_half <= kMaxReach &&
                  p.window_half <= kMaxReach - p.lag_half,
              "similarity window + lag overflows");
}

}  // namespace

core::Array2D local_similarity(const core::Array2D& data,
                               const LocalSimilarityParams& p, int threads) {
  check_params(p);
  return core::apply_cells(core::LocalBlock::whole(data), RowKernel(p, 0),
                           threads);
}

core::EngineReport local_similarity_distributed(
    core::EngineConfig config, const io::Vca& vca,
    const LocalSimilarityParams& p, std::size_t col0) {
  check_params(p);
  config.halo_channels = p.halo();
  const RowKernel kernel(p, col0);
  return core::run_cells(
      config, vca, [&kernel](const core::RankContext&) -> core::CellRowUdf {
        return kernel;
      });
}

}  // namespace dassa::das
