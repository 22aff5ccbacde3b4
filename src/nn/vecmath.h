#ifndef BIRNN_NN_VECMATH_H_
#define BIRNN_NN_VECMATH_H_

#include <cstddef>

namespace birnn::nn {

/// Transcendental sweeps of the recurrent cells, written as strict-FP loops
/// that GCC vectorizes in every build (no -ffast-math, no libmvec). Every
/// element goes through the same operations, so an element's result does
/// not depend on its position in the span: the vector body and the scalar
/// tail agree bit for bit. That is what lets the inference engine run a
/// batch at its real row count and still give a cell the same bits in any
/// batch. In-place operation (y == x) is allowed.

/// y[i] = tanh(x[i]); max absolute error < 5e-7, exact ±0, ±1 at ±inf.
void TanhVec(const float* x, float* y, size_t n);

/// y[i] = 0.5 * tanh(0.5 * x[i]) + 0.5, i.e. 1 / (1 + exp(-x[i])).
void SigmoidVec(const float* x, float* y, size_t n);

}  // namespace birnn::nn

#endif  // BIRNN_NN_VECMATH_H_
