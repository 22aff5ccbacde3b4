#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "nn/ops.h"
#include "nn/tensor.h"
#include "nn/vecmath.h"

namespace birnn::nn {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6u);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(TensorTest, ScalarAndFull) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(2.5f).scalar(), 2.5f);
  Tensor f = Tensor::Full({4}, 7.0f);
  for (size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(f[i], 7.0f);
}

TEST(TensorTest, FromMatrixAndAt) {
  Tensor t = Tensor::FromMatrix(2, 2, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t.at(0, 0), 1);
  EXPECT_FLOAT_EQ(t.at(0, 1), 2);
  EXPECT_FLOAT_EQ(t.at(1, 0), 3);
  EXPECT_FLOAT_EQ(t.at(1, 1), 4);
}

TEST(TensorTest, AddScaleSum) {
  Tensor a = Tensor::FromVector({1, 2, 3});
  Tensor b = Tensor::FromVector({10, 20, 30});
  a.Add(b);
  EXPECT_FLOAT_EQ(a[0], 11);
  a.Scale(2.0f);
  EXPECT_FLOAT_EQ(a[2], 66);
  EXPECT_FLOAT_EQ(a.Sum(), 22 + 44 + 66);
}

TEST(TensorTest, Reshaped) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6});
  Tensor m = t.Reshaped({2, 3});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_FLOAT_EQ(m.at(1, 0), 4);
}

TEST(TensorTest, EqualsAndAllClose) {
  Tensor a = Tensor::FromVector({1, 2});
  Tensor b = Tensor::FromVector({1, 2});
  Tensor c = Tensor::FromVector({1, 2.0001f});
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
  EXPECT_TRUE(a.AllClose(c, 1e-3f));
  EXPECT_FALSE(a.AllClose(c, 1e-6f));
  EXPECT_FALSE(a.AllClose(Tensor(1, 2)));
}

TEST(TensorTest, ToString) {
  Tensor t = Tensor::FromMatrix(1, 3, {1, 2, 3});
  EXPECT_EQ(t.ToString(), "Tensor[1x3]{1, 2, 3}");
}

// --------------------------------------------------------------------- Ops

TEST(OpsTest, MatMulKnownResult) {
  Tensor a = Tensor::FromMatrix(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromMatrix(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c;
  MatMul(a, b, &c);
  // [[58, 64], [139, 154]]
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(OpsTest, MatMulTransposeVariantsMatchExplicit) {
  Tensor a = Tensor::FromMatrix(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromMatrix(3, 4, {1, 0, 2, 1, 3, 1, 0, 2, 0, 1, 1, 1});
  // a^T * b: (2,4)
  Tensor expected(2, 4);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int k = 0; k < 3; ++k) {
        expected.at(i, j) += a.at(k, i) * b.at(k, j);
      }
    }
  }
  Tensor got(2, 4);
  MatMulTransposeAAcc(a, b, &got);
  EXPECT_TRUE(got.AllClose(expected));

  // x * b^T with x (2,4): (2,3)
  Tensor x = Tensor::FromMatrix(2, 4, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor expected2(2, 3);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      for (int k = 0; k < 4; ++k) {
        expected2.at(i, j) += x.at(i, k) * b.at(j, k);
      }
    }
  }
  Tensor got2(2, 3);
  MatMulTransposeBAcc(x, b, &got2);
  EXPECT_TRUE(got2.AllClose(expected2));
}

TEST(OpsTest, AddBiasBroadcastsOverRows) {
  Tensor x = Tensor::FromMatrix(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({10, 20});
  Tensor y;
  AddBias(x, b, &y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11);
  EXPECT_FLOAT_EQ(y.at(1, 1), 24);
}

TEST(OpsTest, Elementwise) {
  Tensor a = Tensor::FromVector({1, -2, 3});
  Tensor b = Tensor::FromVector({2, 2, 2});
  Tensor out;
  AddElem(a, b, &out);
  EXPECT_FLOAT_EQ(out[1], 0);
  SubElem(a, b, &out);
  EXPECT_FLOAT_EQ(out[0], -1);
  MulElem(a, b, &out);
  EXPECT_FLOAT_EQ(out[2], 6);
}

TEST(OpsTest, Nonlinearities) {
  Tensor x = Tensor::FromVector({-1.0f, 0.0f, 1.0f});
  Tensor y;
  TanhElem(x, &y);
  EXPECT_NEAR(y[0], -0.761594f, 1e-5);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  ReluElem(x, &y);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 1.0f);
  SigmoidElem(x, &y);
  EXPECT_NEAR(y[0], 0.268941f, 1e-5);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
}

TEST(OpsTest, SoftmaxRowsSumToOneAndOrder) {
  Tensor logits = Tensor::FromMatrix(2, 3, {1, 2, 3, 1000, 1000, 1000});
  Tensor p;
  SoftmaxRows(logits, &p);
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int c = 0; c < 3; ++c) sum += p.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  EXPECT_LT(p.at(0, 0), p.at(0, 2));
  // Large logits must not overflow (stability shift).
  EXPECT_NEAR(p.at(1, 0), 1.0f / 3.0f, 1e-5);
}

TEST(OpsTest, ConcatCols) {
  Tensor a = Tensor::FromMatrix(2, 1, {1, 2});
  Tensor b = Tensor::FromMatrix(2, 2, {3, 4, 5, 6});
  Tensor c;
  ConcatCols({&a, &b}, &c);
  EXPECT_EQ(c.cols(), 3);
  EXPECT_FLOAT_EQ(c.at(0, 0), 1);
  EXPECT_FLOAT_EQ(c.at(0, 2), 4);
  EXPECT_FLOAT_EQ(c.at(1, 1), 5);
}

TEST(OpsTest, GatherAndScatterRows) {
  Tensor table = Tensor::FromMatrix(3, 2, {0, 1, 10, 11, 20, 21});
  Tensor out;
  GatherRows(table, {2, 0, 2}, &out);
  EXPECT_EQ(out.rows(), 3);
  EXPECT_FLOAT_EQ(out.at(0, 0), 20);
  EXPECT_FLOAT_EQ(out.at(1, 1), 1);

  Tensor grad = Tensor::FromMatrix(3, 2, {1, 1, 2, 2, 3, 3});
  Tensor table_grad(3, 2);
  ScatterAddRows(grad, {2, 0, 2}, &table_grad);
  EXPECT_FLOAT_EQ(table_grad.at(0, 0), 2);  // from row 1
  EXPECT_FLOAT_EQ(table_grad.at(2, 0), 4);  // rows 0 and 2 accumulate
  EXPECT_FLOAT_EQ(table_grad.at(1, 0), 0);
}

TEST(OpsTest, ColSum) {
  Tensor x = Tensor::FromMatrix(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor s;
  ColSum(x, &s);
  EXPECT_FLOAT_EQ(s[0], 5);
  EXPECT_FLOAT_EQ(s[1], 7);
  EXPECT_FLOAT_EQ(s[2], 9);
}

TEST(OpsTest, SoftmaxCrossEntropyKnownValue) {
  // Uniform logits, 2 classes: loss = ln(2).
  Tensor logits = Tensor::FromMatrix(2, 2, {0, 0, 0, 0});
  Tensor probs;
  const float loss = SoftmaxCrossEntropyLoss(logits, {0, 1}, &probs);
  EXPECT_NEAR(loss, std::log(2.0f), 1e-5);
  EXPECT_NEAR(probs.at(0, 0), 0.5f, 1e-6);
}

TEST(OpsTest, SoftmaxCrossEntropyConfidentCorrect) {
  Tensor logits = Tensor::FromMatrix(1, 2, {10, -10});
  const float loss = SoftmaxCrossEntropyLoss(logits, {0}, nullptr);
  EXPECT_LT(loss, 1e-4);
}

// ------------------------------------------------------------------ vecmath

using VecFn = void (*)(const float*, float*, size_t);

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Spans of every length 1..67 at every offset 0..15 equal one-element calls
// bit for bit, so the vector body and the scalar tail agree (under whatever
// FMA contraction the build applies). This is what lets the inference
// engine run unpadded batches; a span past one 256-element chunk and an
// in-place call hold the same contract.
TEST(VecmathTest, SpanEqualsElementwiseBitForBit) {
  std::mt19937 rng(7);
  std::normal_distribution<float> dist(0.0f, 4.0f);
  std::vector<float> x(700);
  for (float& v : x) v = dist(rng);
  x[3] = 3e-4f;
  x[9] = -7.9f;
  x[20] = 7.91f;
  for (VecFn fn : {&TanhVec, &SigmoidVec}) {
    std::vector<float> one(x.size());
    for (size_t i = 0; i < x.size(); ++i) fn(&x[i], &one[i], 1);
    std::vector<float> y(x.size());
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t n = 1; n <= 67; ++n) {
        fn(x.data() + offset, y.data(), n);
        for (size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(SameBits(y[i], one[offset + i]))
              << "offset " << offset << " n " << n << " i " << i;
        }
      }
    }
    std::vector<float> inplace = x;
    fn(inplace.data(), inplace.data(), inplace.size());
    for (size_t i = 0; i < x.size(); ++i) {
      ASSERT_TRUE(SameBits(inplace[i], one[i])) << "i " << i;
    }
  }
}

TEST(VecmathTest, AbsoluteErrorAgainstDoublePrecision) {
  const int n = 2000001;
  std::vector<float> x(n);
  for (int i = 0; i < n; ++i) x[i] = -10.0f + 20.0f * i / (n - 1);
  std::vector<float> t(n);
  std::vector<float> s(n);
  TanhVec(x.data(), t.data(), n);
  SigmoidVec(x.data(), s.data(), n);
  double tanh_err = 0.0;
  double sigmoid_err = 0.0;
  for (int i = 0; i < n; ++i) {
    const double xd = x[i];
    tanh_err = std::max(tanh_err, std::fabs(t[i] - std::tanh(xd)));
    sigmoid_err = std::max(sigmoid_err,
                           std::fabs(s[i] - 1.0 / (1.0 + std::exp(-xd))));
    ASSERT_LE(std::fabs(t[i]), 1.0f) << x[i];
  }
  EXPECT_LE(tanh_err, 5e-7);
  EXPECT_LE(sigmoid_err, 5e-7);
}

TEST(VecmathTest, ExactValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> x = {0.0f, -0.0f, inf, -inf, nan, 1e30f, -1e30f};
  std::vector<float> t(x.size());
  std::vector<float> s(x.size());
  TanhVec(x.data(), t.data(), x.size());
  SigmoidVec(x.data(), s.data(), x.size());
  EXPECT_TRUE(SameBits(t[0], 0.0f));
  EXPECT_TRUE(SameBits(t[1], -0.0f));
  EXPECT_EQ(t[2], 1.0f);
  EXPECT_EQ(t[3], -1.0f);
  EXPECT_TRUE(std::isnan(t[4]));
  EXPECT_EQ(t[5], 1.0f);
  EXPECT_EQ(t[6], -1.0f);
  EXPECT_EQ(s[0], 0.5f);
  EXPECT_EQ(s[1], 0.5f);
  EXPECT_EQ(s[2], 1.0f);
  EXPECT_EQ(s[3], 0.0f);
  EXPECT_TRUE(std::isnan(s[4]));

  // tanh is odd, bit for bit.
  std::vector<float> pos(4001);
  for (size_t i = 0; i < pos.size(); ++i) pos[i] = 0.0025f * i;
  std::vector<float> neg(pos.size());
  for (size_t i = 0; i < pos.size(); ++i) neg[i] = -pos[i];
  std::vector<float> tp(pos.size());
  std::vector<float> tn(pos.size());
  TanhVec(pos.data(), tp.data(), pos.size());
  TanhVec(neg.data(), tn.data(), neg.size());
  for (size_t i = 0; i < pos.size(); ++i) {
    ASSERT_TRUE(SameBits(tn[i], -tp[i])) << pos[i];
  }
}

}  // namespace
}  // namespace birnn::nn
