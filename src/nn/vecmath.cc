// Rational tanh in plain strict-FP loops. Each chunk makes two passes: a
// straight-line pass that evaluates the rational, and a select-only pass
// that fixes up the ends of the range. Splitting them matters: a select
// whose arms hold arithmetic is not if-converted under the default
// -ftrapping-math (the FP ops would have to be speculated), so a fused
// loop only vectorizes where AVX-512 masking is available. Split, both
// passes vectorize on baseline SSE2, AVX2 and AVX-512 alike.
#include "nn/vecmath.h"

#include <algorithm>
#include <cmath>

namespace birnn::nn {
namespace {

/// Below this magnitude tanh(x) rounds to x; the rational would lose a ulp.
constexpr float kTiny = 4e-4f;
/// From here on tanh(x) is within 3e-7 of 1 and the result saturates to ±1,
/// so it never depends on where the rational reaches 1.0f (which moves with
/// FMA contraction).
constexpr float kSaturate = 7.90531110763549805f;
/// Elements per chunk: the rational's scratch stays in L1.
constexpr size_t kChunk = 256;

/// Odd [13/6] rational minimax approximation of tanh on [-8, 8] (the
/// coefficients of Eigen's fast float tanh). Not valid outside it, and NaN
/// past |x| ~ 1.8e19 where x*x overflows; TanhFixup covers both.
inline float TanhRational(float x) {
  const float x2 = x * x;
  float p = x2 * -2.76076847742355e-16f + 2.00018790482477e-13f;
  p = x2 * p + -8.60467152213735e-11f;
  p = x2 * p + 5.12229709037114e-08f;
  p = x2 * p + 1.48572235717979e-05f;
  p = x2 * p + 6.37261928875436e-04f;
  p = x2 * p + 4.89352455891786e-03f;
  float q = x2 * 1.19825839466702e-06f + 1.18534705686654e-04f;
  q = x2 * q + 2.26843463243900e-03f;
  q = x2 * q + 4.89352518554385e-03f;
  return x * p / q;
}

/// tanh(x) given r = TanhRational(x). NaN fails both tests and keeps r,
/// which is NaN too.
inline float TanhFixup(float x, float r) {
  const float a = std::fabs(x);
  return a < kTiny ? x : (a >= kSaturate ? std::copysign(1.0f, x) : r);
}

}  // namespace

void TanhVec(const float* x, float* y, size_t n) {
  float r[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t m = std::min(kChunk, n - base);
    const float* xs = x + base;
    float* ys = y + base;
    for (size_t i = 0; i < m; ++i) r[i] = TanhRational(xs[i]);
    for (size_t i = 0; i < m; ++i) ys[i] = TanhFixup(xs[i], r[i]);
  }
}

void SigmoidVec(const float* x, float* y, size_t n) {
  float h[kChunk];
  float r[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t m = std::min(kChunk, n - base);
    const float* xs = x + base;
    float* ys = y + base;
    for (size_t i = 0; i < m; ++i) h[i] = 0.5f * xs[i];
    for (size_t i = 0; i < m; ++i) r[i] = TanhRational(h[i]);
    for (size_t i = 0; i < m; ++i) r[i] = TanhFixup(h[i], r[i]);
    for (size_t i = 0; i < m; ++i) ys[i] = 0.5f * r[i] + 0.5f;
  }
}

}  // namespace birnn::nn
