#include "dassa/dsp/butterworth.hpp"

#include <cmath>
#include <complex>
#include <map>
#include <numbers>
#include <tuple>
#include <vector>

#include "dassa/common/error.hpp"
#include "dassa/common/sync.hpp"
#include "dassa/common/counters.hpp"

namespace dassa::dsp {

namespace {

using cd = std::complex<double>;

/// Zero-pole-gain filter representation used during design.
struct Zpk {
  std::vector<cd> z;
  std::vector<cd> p;
  double k = 1.0;
};

/// Analog Butterworth prototype: no zeros, poles evenly spaced on the
/// left half of the unit circle, unit gain (MATLAB buttap).
Zpk butter_prototype(int order) {
  Zpk f;
  f.p.reserve(static_cast<std::size_t>(order));
  for (int i = 0; i < order; ++i) {
    const double theta = std::numbers::pi *
                         (2.0 * static_cast<double>(i) + 1.0) /
                         (2.0 * static_cast<double>(order));
    // -sin + i*cos lies strictly in the left half plane.
    f.p.emplace_back(-std::sin(theta), std::cos(theta));
  }
  f.k = 1.0;
  return f;
}

cd prod(const std::vector<cd>& v) {
  cd r(1.0, 0.0);
  for (const cd& x : v) r *= x;
  return r;
}

/// Lowpass prototype -> lowpass at angular frequency wo.
Zpk lp2lp(Zpk f, double wo) {
  const int degree =
      static_cast<int>(f.p.size()) - static_cast<int>(f.z.size());
  for (auto& z : f.z) z *= wo;
  for (auto& p : f.p) p *= wo;
  f.k *= std::pow(wo, degree);
  return f;
}

/// Lowpass prototype -> highpass at angular frequency wo.
Zpk lp2hp(Zpk f, double wo) {
  const std::size_t degree = f.p.size() - f.z.size();
  Zpk out;
  out.z.reserve(f.z.size() + degree);
  out.p.reserve(f.p.size());
  for (const auto& z : f.z) out.z.push_back(wo / z);
  for (const auto& p : f.p) out.p.push_back(wo / p);
  // Degree-difference zeros migrate to the origin.
  for (std::size_t i = 0; i < degree; ++i) out.z.emplace_back(0.0, 0.0);
  // Gain: k * real(prod(-z) / prod(-p)).
  std::vector<cd> neg_z(f.z.size());
  std::vector<cd> neg_p(f.p.size());
  for (std::size_t i = 0; i < f.z.size(); ++i) neg_z[i] = -f.z[i];
  for (std::size_t i = 0; i < f.p.size(); ++i) neg_p[i] = -f.p[i];
  out.k = f.k * (prod(neg_z) / prod(neg_p)).real();
  return out;
}

/// Lowpass prototype -> bandpass with centre wo and bandwidth bw.
Zpk lp2bp(Zpk f, double wo, double bw) {
  const std::size_t degree = f.p.size() - f.z.size();
  Zpk out;
  auto transform = [&](const std::vector<cd>& roots, std::vector<cd>& dst) {
    for (const auto& r : roots) {
      const cd scaled = r * (bw / 2.0);
      const cd disc = std::sqrt(scaled * scaled - cd(wo * wo, 0.0));
      dst.push_back(scaled + disc);
      dst.push_back(scaled - disc);
    }
  };
  transform(f.z, out.z);
  transform(f.p, out.p);
  for (std::size_t i = 0; i < degree; ++i) out.z.emplace_back(0.0, 0.0);
  out.k = f.k * std::pow(bw, degree);
  return out;
}

/// Bilinear transform s -> z with sampling rate fs (MATLAB bilinear).
Zpk bilinear(Zpk f, double fs) {
  const double fs2 = 2.0 * fs;
  Zpk out;
  out.z.reserve(f.p.size());
  out.p.reserve(f.p.size());
  cd num(1.0, 0.0);
  cd den(1.0, 0.0);
  for (const auto& z : f.z) {
    out.z.push_back((cd(fs2, 0.0) + z) / (cd(fs2, 0.0) - z));
    num *= (cd(fs2, 0.0) - z);
  }
  for (const auto& p : f.p) {
    out.p.push_back((cd(fs2, 0.0) + p) / (cd(fs2, 0.0) - p));
    den *= (cd(fs2, 0.0) - p);
  }
  // Zeros of the analog filter at infinity map to z = -1.
  while (out.z.size() < out.p.size()) out.z.emplace_back(-1.0, 0.0);
  out.k = f.k * (num / den).real();
  return out;
}

/// Expand roots into monic polynomial coefficients (highest power
/// first); imaginary parts cancel for conjugate-paired root sets.
std::vector<double> poly(const std::vector<cd>& roots) {
  std::vector<cd> c(1, cd(1.0, 0.0));
  for (const auto& r : roots) {
    c.push_back(cd(0.0, 0.0));
    for (std::size_t i = c.size() - 1; i > 0; --i) {
      c[i] -= r * c[i - 1];
    }
  }
  std::vector<double> out(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) out[i] = c[i].real();
  return out;
}

FilterCoeffs zpk_to_tf(const Zpk& f) {
  FilterCoeffs tf;
  tf.b = poly(f.z);
  for (double& v : tf.b) v *= f.k;
  tf.a = poly(f.p);
  return tf;
}

void check_wn(double wn) {
  DASSA_CHECK(wn > 0.0 && wn < 1.0,
              "normalised cutoff must lie strictly in (0, 1)");
}

/// Pre-warped analog angular frequency for a Nyquist-relative digital
/// cutoff wn, using the fs = 2 convention (so digital frequencies map
/// through tan(pi * wn / 2)).
double warp(double wn) {
  return 4.0 * std::tan(std::numbers::pi * wn / 2.0);
}

/// Design cache: row UDFs redesign the same filter for every channel
/// (~10^4 identical designs per pipeline run), so finished coefficient
/// sets are memoised by (kind, order, cutoffs) behind a read-mostly
/// lock. Keys are the exact double arguments -- repeated calls from a
/// pipeline pass bit-identical parameters.
enum class ButterKind { kLowpass, kHighpass, kBandpass };

using DesignKey = std::tuple<int, int, double, double>;

/// Named struct (not function-local statics) so the map carries its
/// DASSA_GUARDED_BY annotation.
struct DesignCache {
  SharedMutex mu;
  std::map<DesignKey, FilterCoeffs> designs DASSA_GUARDED_BY(mu);
};

DesignCache& design_cache() {
  static DesignCache cache;
  return cache;
}

FilterCoeffs cached_design(ButterKind kind, int order, double w1, double w2,
                           FilterCoeffs (*design)(int, double, double)) {
  DesignCache& cache = design_cache();
  const DesignKey key{static_cast<int>(kind), order, w1, w2};
  static Counter& hits =
      global_counters().counter(counters::kDspButterDesignHits);
  static Counter& misses =
      global_counters().counter(counters::kDspButterDesignMisses);
  {
    ReaderLock lock(cache.mu);
    auto it = cache.designs.find(key);
    if (it != cache.designs.end()) {
      hits.add();
      return it->second;
    }
  }
  FilterCoeffs designed = design(order, w1, w2);
  WriterLock lock(cache.mu);
  auto [it, inserted] = cache.designs.emplace(key, std::move(designed));
  if (inserted) {
    misses.add();
  } else {
    hits.add();
  }
  return it->second;
}

FilterCoeffs design_lowpass(int order, double wn, double) {
  Zpk f = butter_prototype(order);
  f = lp2lp(std::move(f), warp(wn));
  f = bilinear(std::move(f), 2.0);
  return zpk_to_tf(f);
}

FilterCoeffs design_highpass(int order, double wn, double) {
  Zpk f = butter_prototype(order);
  f = lp2hp(std::move(f), warp(wn));
  f = bilinear(std::move(f), 2.0);
  return zpk_to_tf(f);
}

FilterCoeffs design_bandpass(int order, double w_lo, double w_hi) {
  const double lo = warp(w_lo);
  const double hi = warp(w_hi);
  const double wo = std::sqrt(lo * hi);
  const double bw = hi - lo;
  Zpk f = butter_prototype(order);
  f = lp2bp(std::move(f), wo, bw);
  f = bilinear(std::move(f), 2.0);
  return zpk_to_tf(f);
}

}  // namespace

FilterCoeffs butter_lowpass(int order, double wn) {
  DASSA_CHECK(order >= 1, "filter order must be >= 1");
  check_wn(wn);
  return cached_design(ButterKind::kLowpass, order, wn, 0.0, design_lowpass);
}

FilterCoeffs butter_highpass(int order, double wn) {
  DASSA_CHECK(order >= 1, "filter order must be >= 1");
  check_wn(wn);
  return cached_design(ButterKind::kHighpass, order, wn, 0.0,
                       design_highpass);
}

FilterCoeffs butter_bandpass(int order, double w_lo, double w_hi) {
  DASSA_CHECK(order >= 1, "filter order must be >= 1");
  check_wn(w_lo);
  check_wn(w_hi);
  DASSA_CHECK(w_lo < w_hi, "bandpass requires w_lo < w_hi");
  return cached_design(ButterKind::kBandpass, order, w_lo, w_hi,
                       design_bandpass);
}

}  // namespace dassa::dsp
