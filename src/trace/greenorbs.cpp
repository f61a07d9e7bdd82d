#include "trace/greenorbs.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "field/analytic_fields.hpp"  // fieldtag::kGreenOrbs
#include "numerics/rng.hpp"
#include "parallel/simd.hpp"

namespace cps::trace {

GreenOrbsField::GreenOrbsField(const GreenOrbsConfig& config)
    : config_(config),
      noise_(config.seed ^ 0xa5a5a5a5ULL, config.noise_frequency) {
  if (config.region.width() <= 0.0 || config.region.height() <= 0.0) {
    throw std::invalid_argument("GreenOrbsField: empty region");
  }
  if (config.gap_count < 0) {
    throw std::invalid_argument("GreenOrbsField: gap_count < 0");
  }
  if (!(config.amplitude_min > 0.0) ||
      !(config.amplitude_max >= config.amplitude_min)) {
    throw std::invalid_argument("GreenOrbsField: amplitude range");
  }
  if (!(config.sigma_min > 0.0) || !(config.sigma_max >= config.sigma_min)) {
    throw std::invalid_argument("GreenOrbsField: sigma range");
  }
  if (config.sunrise >= config.sunset) {
    throw std::invalid_argument("GreenOrbsField: sunrise >= sunset");
  }
  if (!(config.flutter_fraction >= 0.0 && config.flutter_fraction <= 1.0)) {
    throw std::invalid_argument("GreenOrbsField: flutter fraction");
  }
  if (!(config.flutter_period > 0.0)) {
    throw std::invalid_argument("GreenOrbsField: flutter period");
  }

  num::Rng rng(config.seed);
  gaps_.reserve(static_cast<std::size_t>(config.gap_count));
  for (int i = 0; i < config.gap_count; ++i) {
    Gap g;
    g.center0 = {rng.uniform(config_.region.x0, config_.region.x1),
                 rng.uniform(config_.region.y0, config_.region.y1)};
    const double heading = rng.uniform(0.0, 2.0 * std::numbers::pi);
    g.drift = geo::Vec2{std::cos(heading), std::sin(heading)} *
              (config.drift_speed * rng.uniform(0.5, 1.5));
    g.amplitude = rng.uniform(config.amplitude_min, config.amplitude_max);
    g.sigma = rng.uniform(config.sigma_min, config.sigma_max);
    g.flutter_phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
    gaps_.push_back(g);
  }
}

double GreenOrbsField::envelope(double t) const noexcept {
  if (t <= config_.sunrise || t >= config_.sunset) return 0.0;
  const double phase =
      (t - config_.sunrise) / (config_.sunset - config_.sunrise);
  return std::sin(std::numbers::pi * phase);
}

geo::Vec2 GreenOrbsField::gap_center(const Gap& g, double t) const noexcept {
  geo::Vec2 c = g.center0 + g.drift * t;
  // Reflect the drifted centre back into the region so gaps never leave the
  // window entirely (a gap wandering off would make late frames trivially
  // flat).
  const auto reflect = [](double v, double lo, double hi) {
    const double span = hi - lo;
    double u = std::fmod(v - lo, 2.0 * span);
    if (u < 0.0) u += 2.0 * span;
    return lo + (u <= span ? u : 2.0 * span - u);
  };
  c.x = reflect(c.x, config_.region.x0, config_.region.x1);
  c.y = reflect(c.y, config_.region.y0, config_.region.y1);
  return c;
}

double GreenOrbsField::do_value(geo::Vec2 p, double t) const {
  const double env = envelope(t);
  if (env == 0.0) return 0.0;
  double light = config_.base_light;
  for (const auto& g : gaps_) {
    const double flutter =
        1.0 + config_.flutter_fraction *
                  std::sin(2.0 * std::numbers::pi * t /
                               config_.flutter_period +
                           g.flutter_phase);
    const double r2 = geo::distance_sq(p, gap_center(g, t));
    light += g.amplitude * flutter *
             std::exp(-r2 / (2.0 * g.sigma * g.sigma));
  }
  light += config_.noise_amplitude * noise_.fbm(p.x, p.y, 3);
  return std::max(0.0, env * light);
}

void GreenOrbsField::do_value_row(double y, std::span<const double> xs,
                                  double t, double* out) const {
  const double env = envelope(t);
  if (env == 0.0) {
    std::fill(out, out + xs.size(), 0.0);
    return;
  }
  // Everything t-dependent — the diurnal envelope, each gap's fluttered
  // amplitude and drifted centre — is row-invariant; hoist it so the inner
  // loop is one Gaussian per gap per point.  The per-point expressions
  // match do_value exactly (amplitude * flutter associates left, so the
  // hoisted product is the same double).
  struct RowGap {
    geo::Vec2 center;
    double fluttered_amplitude;
    double two_sigma_sq;
  };
  thread_local std::vector<RowGap> row_gaps;
  row_gaps.clear();
  row_gaps.reserve(gaps_.size());
  for (const auto& g : gaps_) {
    const double flutter =
        1.0 + config_.flutter_fraction *
                  std::sin(2.0 * std::numbers::pi * t /
                               config_.flutter_period +
                           g.flutter_phase);
    row_gaps.push_back(RowGap{gap_center(g, t), g.amplitude * flutter,
                              2.0 * g.sigma * g.sigma});
  }
  // Gap-outer restructuring (same shape as GaussianMixtureField): per
  // point the accumulation still runs base + gap0 + gap1 + ... + noise in
  // that order, so every intermediate rounding matches do_value.  Each
  // gap's exponent arguments vectorize (distance_sq spelled out in its
  // dx*dx + dy*dy order); std::exp stays scalar — the vectorized libmvec
  // variants are not bit-identical to scalar libm.  The noise comes from
  // ValueNoise::fbm_row, whose per-point values are fbm's bits.
  const std::size_t n = xs.size();
  thread_local std::vector<double> light, arg;
  light.resize(n);
  arg.resize(n);
  CPS_SIMD
  for (std::size_t i = 0; i < n; ++i) light[i] = config_.base_light;
  for (const auto& rg : row_gaps) {
    const double cx = rg.center.x;
    const double dy_sq = (y - rg.center.y) * (y - rg.center.y);
    const double two_sigma_sq = rg.two_sigma_sq;
    const double amplitude = rg.fluttered_amplitude;
    CPS_SIMD
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = xs[i] - cx;
      const double r2 = dx * dx + dy_sq;
      arg[i] = -r2 / two_sigma_sq;
    }
    for (std::size_t i = 0; i < n; ++i) arg[i] = std::exp(arg[i]);
    CPS_SIMD
    for (std::size_t i = 0; i < n; ++i) light[i] += amplitude * arg[i];
  }
  noise_.fbm_row(y, xs, 3, arg.data());  // The leaf texture, row at once.
  CPS_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    light[i] += config_.noise_amplitude * arg[i];
  }
  CPS_SIMD
  for (std::size_t i = 0; i < n; ++i) out[i] = std::max(0.0, env * light[i]);
}

std::uint64_t GreenOrbsField::do_content_key() const {
  namespace fk = field::fieldkey;
  std::uint64_t h = field::fieldtag::kGreenOrbs;
  h = fk::combine(h, fk::bits(config_.region.x0));
  h = fk::combine(h, fk::bits(config_.region.y0));
  h = fk::combine(h, fk::bits(config_.region.x1));
  h = fk::combine(h, fk::bits(config_.region.y1));
  h = fk::combine(h, config_.seed);
  h = fk::combine(h, static_cast<std::uint64_t>(config_.gap_count));
  h = fk::combine(h, fk::bits(config_.base_light));
  h = fk::combine(h, fk::bits(config_.amplitude_min));
  h = fk::combine(h, fk::bits(config_.amplitude_max));
  h = fk::combine(h, fk::bits(config_.sigma_min));
  h = fk::combine(h, fk::bits(config_.sigma_max));
  h = fk::combine(h, fk::bits(config_.drift_speed));
  h = fk::combine(h, fk::bits(config_.flutter_fraction));
  h = fk::combine(h, fk::bits(config_.flutter_period));
  h = fk::combine(h, fk::bits(config_.noise_amplitude));
  h = fk::combine(h, fk::bits(config_.noise_frequency));
  h = fk::combine(h, fk::bits(config_.sunrise));
  return fk::combine(h, fk::bits(config_.sunset));
}

field::GridField GreenOrbsField::snapshot(double t, std::size_t nx,
                                          std::size_t ny) const {
  const field::FieldSlice slice(*this, t);
  return field::GridField::sample(slice, config_.region, nx, ny);
}

field::FrameSequenceField GreenOrbsField::record(double t0, double t1,
                                                 double dt, std::size_t nx,
                                                 std::size_t ny) const {
  if (!(dt > 0.0)) throw std::invalid_argument("record: dt <= 0");
  if (t1 < t0) throw std::invalid_argument("record: t1 < t0");
  std::vector<field::GridField> frames;
  std::vector<double> stamps;
  for (double t = t0; t <= t1 + 1e-9; t += dt) {
    frames.push_back(snapshot(t, nx, ny));
    stamps.push_back(t);
  }
  return field::FrameSequenceField(std::move(frames), std::move(stamps));
}

}  // namespace cps::trace
