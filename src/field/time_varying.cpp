#include "field/time_varying.hpp"

#include <algorithm>
#include <stdexcept>

#include "parallel/simd.hpp"

namespace cps::field {

AnalyticTimeField::AnalyticTimeField(
    std::function<double(double, double, double)> fn)
    : fn_(std::move(fn)) {
  if (!fn_) throw std::invalid_argument("AnalyticTimeField: empty callable");
}

StaticTimeField::StaticTimeField(std::shared_ptr<const Field> f)
    : f_(std::move(f)) {
  if (!f_) throw std::invalid_argument("StaticTimeField: null field");
}

FrameSequenceField::FrameSequenceField(std::vector<GridField> frames,
                                       std::vector<double> timestamps)
    : frames_(std::move(frames)), timestamps_(std::move(timestamps)) {
  if (frames_.empty() || frames_.size() != timestamps_.size()) {
    throw std::invalid_argument("FrameSequenceField: frames/timestamps");
  }
  for (std::size_t i = 1; i < timestamps_.size(); ++i) {
    if (timestamps_[i] <= timestamps_[i - 1]) {
      throw std::invalid_argument(
          "FrameSequenceField: timestamps not increasing");
    }
    if (frames_[i].nx() != frames_[0].nx() ||
        frames_[i].ny() != frames_[0].ny()) {
      throw std::invalid_argument("FrameSequenceField: grid shape mismatch");
    }
  }
}

void FrameSequenceField::do_value_row(double y, std::span<const double> xs,
                                      double t, double* out) const {
  // The bracketing frames and blend weight depend only on t, so one
  // branch + upper_bound serves the whole row; the clamped cases forward
  // straight to the single frame's batched kernel.
  if (frames_.size() == 1 || t <= timestamps_.front()) {
    frames_.front().value_row(y, xs, out);
    return;
  }
  if (t >= timestamps_.back()) {
    frames_.back().value_row(y, xs, out);
    return;
  }
  const auto it =
      std::upper_bound(timestamps_.begin(), timestamps_.end(), t);
  const auto hi = static_cast<std::size_t>(it - timestamps_.begin());
  const std::size_t lo = hi - 1;
  const double span = timestamps_[hi] - timestamps_[lo];
  const double w = (t - timestamps_[lo]) / span;
  frames_[lo].value_row(y, xs, out);
  // At a frame stamp (w == 0) the blend is the lower frame itself: skip
  // sampling the upper one.  (The blend would differ only where the upper
  // value is non-finite, or turn a -0.0 into +0.0; do_value skips alike.)
  if (w == 0.0) return;
  // Scratch for the hi frame's row; reused across calls so the delta
  // metric's row sweep doesn't allocate per row.
  thread_local std::vector<double> hi_row;
  hi_row.resize(xs.size());
  frames_[hi].value_row(y, xs, hi_row.data());
  const double* hi_p = hi_row.data();
  CPS_SIMD
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out[i] = out[i] * (1.0 - w) + hi_p[i] * w;
  }
}

double FrameSequenceField::do_value(geo::Vec2 p, double t) const {
  if (frames_.size() == 1 || t <= timestamps_.front()) {
    return frames_.front().value(p);
  }
  if (t >= timestamps_.back()) return frames_.back().value(p);
  // First timestamp strictly greater than t; predecessor exists because of
  // the clamps above.
  const auto it =
      std::upper_bound(timestamps_.begin(), timestamps_.end(), t);
  const auto hi = static_cast<std::size_t>(it - timestamps_.begin());
  const std::size_t lo = hi - 1;
  const double span = timestamps_[hi] - timestamps_[lo];
  const double w = (t - timestamps_[lo]) / span;
  if (w == 0.0) return frames_[lo].value(p);  // As do_value_row.
  return frames_[lo].value(p) * (1.0 - w) + frames_[hi].value(p) * w;
}

}  // namespace cps::field
