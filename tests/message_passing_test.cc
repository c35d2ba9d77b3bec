// Differential suite for the message-passing op Tape::Aggregate and for
// BipartiteAttentionLayer, which runs it and Tape::EdgeScores.
//
// Aggregate's oracle is the composition it replaced: GatherRows ->
// [ColBroadcastMul] -> a scalar scatter loop. The scatter's backward,
// which copied the output gradient of row dst[e] into edge e, is the
// upstream gradient the oracle hands its gathered rows. Forward values and
// every input gradient must match bit for bit, -0.0 included, and each
// input gradient is first pre-filled by a later term of the loss. Two NaNs
// match each other: when two NaNs meet in one addition IEEE 754 leaves
// open which payload the sum carries (simd_kernels_test).
//
// The attention layer computes Eq. 5's scores from per-vertex numbers, a
// different association of the same function as the chain it replaced, so
// its oracle agrees to a relative 1e-5, and a finite-difference check
// covers the gradients of Theta_a and a.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/modules.h"
#include "nn/tape.h"

namespace neursc {
namespace {

uint32_t Bits(float v) {
  uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

std::string HexBits(float v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", Bits(v));
  return buf;
}

::testing::AssertionResult SameMatrix(const Matrix& got, const Matrix& want,
                                      const std::string& what) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << what << ": shape differs";
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const float g = got.data()[i];
    const float w = want.data()[i];
    if (std::isnan(g) && std::isnan(w)) continue;
    if (Bits(g) != Bits(w)) {
      return ::testing::AssertionFailure()
             << what << " entry " << i << ": got " << HexBits(g)
             << ", want " << HexBits(w);
    }
  }
  return ::testing::AssertionSuccess();
}

/// Values in [-2, 2); with `special`, about one entry in five is -0.0,
/// +0.0, NaN or a denormal.
Matrix Values(size_t rows, size_t cols, bool special, Rng* rng) {
  static const float kSpecials[] = {
      -0.0f, 0.0f, std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min()};
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] =
        special && rng->Uniform(0.0, 1.0) < 0.2
            ? kSpecials[rng->UniformIndex(std::size(kSpecials))]
            : static_cast<float>(rng->Uniform(-2.0, 2.0));
  }
  return m;
}

struct Edges {
  std::vector<uint32_t> src;
  std::vector<uint32_t> dst;
};

/// `count` edges from rows below `n` to rows below `dst_rows`. Every
/// fourth edge repeats the one before it and every fifth is a self-loop;
/// the last row of each side, when it has more than one, is never drawn,
/// so it stays isolated.
Edges RandomEdges(size_t n, size_t dst_rows, size_t count, Rng* rng) {
  Edges edges;
  for (size_t e = 0; e < count; ++e) {
    uint32_t s = static_cast<uint32_t>(rng->UniformIndex(n > 1 ? n - 1 : 1));
    uint32_t d = static_cast<uint32_t>(
        rng->UniformIndex(dst_rows > 1 ? dst_rows - 1 : 1));
    if (e % 4 == 3) {
      s = edges.src.back();
      d = edges.dst.back();
    } else if (e % 5 == 4 && s < dst_rows) {
      d = s;
    }
    edges.src.push_back(s);
    edges.dst.push_back(d);
  }
  return edges;
}

/// out[dst[e]] += y[e] in edge order, onto zeros: the removed scatter op.
Matrix ScatterLoop(const Matrix& y, const std::vector<uint32_t>& dst,
                   size_t rows) {
  Matrix out(rows, y.cols());
  for (size_t e = 0; e < dst.size(); ++e) {
    for (size_t c = 0; c < y.cols(); ++c) {
      out.at(dst[e], c) = out.at(dst[e], c) + y.at(e, c);
    }
  }
  return out;
}

/// g[dst[e]] for every edge: the removed scatter op's backward.
Matrix GatherLoop(const Matrix& g, const std::vector<uint32_t>& dst) {
  Matrix out(dst.size(), g.cols());
  for (size_t e = 0; e < dst.size(); ++e) {
    for (size_t c = 0; c < g.cols(); ++c) out.at(e, c) = g.at(dst[e], c);
  }
  return out;
}

/// sum(y * upstream) plus sum(leaf_k * pre_fill_k) for every leaf. The
/// later terms run first in Backward, so each leaf's gradient already
/// holds a value when the op under test adds to it.
Var Loss(Tape* tape, Var y, const Matrix& upstream,
         const std::vector<Var>& leaves, const std::vector<Matrix>& pre_fill) {
  Var loss = tape->ReduceSum(tape->Mul(y, tape->Constant(upstream)));
  for (size_t k = 0; k < leaves.size(); ++k) {
    loss = tape->Add(loss, tape->ReduceSum(tape->Mul(
                               leaves[k], tape->Constant(pre_fill[k]))));
  }
  return loss;
}

/// The shapes: E and d on both sides of the 8-wide vector blocks, the
/// empty edge list, and one row.
struct Shape {
  size_t n;
  size_t edges;
  size_t d;
};
constexpr Shape kShapes[] = {{1, 0, 3},  {1, 3, 1},   {5, 0, 8},
                             {6, 7, 7},  {6, 8, 8},   {9, 9, 9},
                             {12, 17, 4}, {20, 33, 32}, {31, 70, 33}};

std::string Name(const Shape& s, bool special) {
  return "n=" + std::to_string(s.n) + " E=" + std::to_string(s.edges) +
         " d=" + std::to_string(s.d) + (special ? " special" : "");
}

TEST(MessagePassingTest, AggregateMatchesGatherScaleScatter) {
  Rng rng(7);
  for (const Shape& shape : kShapes) {
    for (bool special : {false, true}) {
      for (bool weighted : {false, true}) {
        SCOPED_TRACE(Name(shape, special) +
                     (weighted ? " weighted" : " unweighted"));
        // The output has two more rows than x, so rows past x's stay
        // isolated too.
        const size_t out_rows = shape.n + 2;
        const Edges edges = RandomEdges(shape.n, out_rows, shape.edges, &rng);
        std::vector<Matrix> inputs = {Values(shape.n, shape.d, special, &rng)};
        if (weighted) inputs.push_back(Values(shape.edges, 1, special, &rng));
        std::vector<Matrix> pre_fill;
        for (const Matrix& in : inputs) {
          pre_fill.push_back(Values(in.rows(), in.cols(), false, &rng));
        }
        const Matrix upstream = Values(out_rows, shape.d, false, &rng);

        std::vector<Parameter> fused(inputs.begin(), inputs.end());
        Matrix fused_value;
        {
          Tape tape;
          std::vector<Var> leaves;
          for (Parameter& p : fused) leaves.push_back(tape.Leaf(&p));
          Var y = tape.Aggregate(leaves[0], edges.src, edges.dst, out_rows,
                                 weighted ? leaves[1] : Var{});
          fused_value = tape.Value(y);
          tape.Backward(Loss(&tape, y, upstream, leaves, pre_fill));
        }

        std::vector<Parameter> oracle(inputs.begin(), inputs.end());
        Matrix oracle_value;
        {
          Tape tape;
          std::vector<Var> leaves;
          for (Parameter& p : oracle) leaves.push_back(tape.Leaf(&p));
          Var messages = tape.GatherRows(leaves[0], edges.src);
          if (weighted) messages = tape.ColBroadcastMul(messages, leaves[1]);
          oracle_value = ScatterLoop(tape.Value(messages), edges.dst, out_rows);
          tape.Backward(Loss(&tape, messages, GatherLoop(upstream, edges.dst),
                             leaves, pre_fill));
        }

        EXPECT_TRUE(SameMatrix(fused_value, oracle_value, "value"));
        for (size_t k = 0; k < inputs.size(); ++k) {
          EXPECT_TRUE(SameMatrix(fused[k].grad, oracle[k].grad,
                                 "gradient of input " + std::to_string(k)));
        }
      }
    }
  }
}

/// The output and the gradients of h, Theta, Theta_a and a of one pass of
/// `layer` (h is a leaf), for the loss sum(y * upstream). With
/// `project_first`, the scores run the chain the layer replaced: every
/// vertex projected by Theta_a, then MatMul(ConcatCols(GatherRows(., dst),
/// GatherRows(., src)), a); the rest of the layer is unchanged.
std::vector<Matrix> RunAttentionLayer(BipartiteAttentionLayer* layer,
                                      const Matrix& h, const Edges& edges,
                                      const Matrix& upstream,
                                      bool project_first) {
  const std::vector<Parameter*> weights = layer->Parameters();
  for (Parameter* p : weights) p->ZeroGrad();
  Parameter hp(h);
  Tape tape;
  Var hv = tape.Leaf(&hp);
  Var y;
  if (project_first) {
    const size_t n = h.rows();
    Var theta = tape.Leaf(weights[0]);
    Var theta_attn = tape.Leaf(weights[1]);
    Var attn = tape.Leaf(weights[2]);
    Var projected = tape.MatMul(hv, theta);
    Var attn_feats = tape.MatMul(hv, theta_attn);
    Var feats_dst = tape.GatherRows(attn_feats, edges.dst);
    Var feats_src = tape.GatherRows(attn_feats, edges.src);
    Var pair = tape.ConcatCols(feats_dst, feats_src);
    Var logits = tape.LeakyRelu(tape.MatMul(pair, attn));
    Var alpha = tape.SegmentSoftmax(logits, edges.dst, n);
    y = tape.Aggregate(projected, edges.src, edges.dst, n, alpha);
  } else {
    EdgeIndex index;
    for (size_t e = 0; e < edges.src.size(); ++e) {
      index.Add(edges.src[e], edges.dst[e]);
    }
    y = layer->Forward(&tape, hv, index);
  }
  std::vector<Matrix> out = {tape.Value(y)};
  tape.Backward(tape.ReduceSum(tape.Mul(y, tape.Constant(upstream))));
  out.push_back(hp.grad);
  for (Parameter* p : weights) out.push_back(p->grad);
  return out;
}

/// Every entry of `got` within 1e-5 of `want`, relative to the largest
/// magnitude in `want` (an entry that is a sum of cancelling terms has no
/// relative accuracy of its own). NaN must meet NaN.
::testing::AssertionResult CloseMatrix(const Matrix& got, const Matrix& want,
                                       const std::string& what) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << what << ": shape differs";
  }
  float scale = 0.0f;
  for (size_t i = 0; i < want.size(); ++i) {
    if (!std::isnan(want.data()[i])) {
      scale = std::max(scale, std::abs(want.data()[i]));
    }
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const float g = got.data()[i];
    const float w = want.data()[i];
    if (std::isnan(g) != std::isnan(w) ||
        std::abs(g - w) > 1e-5f * scale) {
      return ::testing::AssertionFailure()
             << what << " entry " << i << ": got " << g << ", want " << w
             << " (largest entry " << scale << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(MessagePassingTest, AttentionLayerMatchesProjectThenScoreChain) {
  // The layer folds a into Theta_a and scores each edge from two numbers
  // per vertex. That is the same function as projecting every vertex by
  // Theta_a first, but not the same floats, so the two agree to a relative
  // 1e-5: the output and the gradients of h, Theta, Theta_a and a.
  Rng rng(13);
  for (const Shape& shape : kShapes) {
    for (bool special : {false, true}) {
      SCOPED_TRACE(Name(shape, special));
      const size_t n = shape.n;
      const size_t in = shape.d;
      const size_t out = shape.d + 2;
      BipartiteAttentionLayer layer(in, out, &rng);
      const Matrix h = Values(n, in, special, &rng);
      const Matrix upstream = Values(n, out, false, &rng);
      // The random edges, then the self-loop of every vertex that the
      // layer's caller appends for Eq. 4's alpha_uu.
      Edges edges = RandomEdges(n, n, shape.edges, &rng);
      for (uint32_t v = 0; v < n; ++v) {
        edges.src.push_back(v);
        edges.dst.push_back(v);
      }

      const std::vector<Matrix> got =
          RunAttentionLayer(&layer, h, edges, upstream, false);
      const std::vector<Matrix> want =
          RunAttentionLayer(&layer, h, edges, upstream, true);
      const char* kWhat[] = {"output", "h gradient", "Theta gradient",
                             "Theta_a gradient", "a gradient"};
      for (size_t k = 0; k < got.size(); ++k) {
        EXPECT_TRUE(CloseMatrix(got[k], want[k], kWhat[k]));
      }
    }
  }
}

TEST(MessagePassingTest, AttentionLayerGradientsMatchFiniteDifferences) {
  // Central differences of the loss in every entry of Theta_a and a
  // against the layer's analytic gradients. Inputs of magnitude up to 2
  // and several edges per destination keep the softmax away from one-hot
  // and uniform, so both gradients are far from 0.
  Rng rng(17);
  constexpr size_t kN = 7;
  BipartiteAttentionLayer layer(6, 5, &rng);
  const Matrix h = Values(kN, 6, false, &rng);
  const Matrix upstream = Values(kN, 5, false, &rng);
  Edges edges = RandomEdges(kN, kN, 24, &rng);
  for (uint32_t v = 0; v < kN; ++v) {
    edges.src.push_back(v);
    edges.dst.push_back(v);
  }
  const std::vector<Parameter*> weights = layer.Parameters();
  auto loss = [&]() {
    const Matrix y = RunAttentionLayer(&layer, h, edges, upstream, false)[0];
    double sum = 0.0;
    for (size_t i = 0; i < y.size(); ++i) {
      sum += static_cast<double>(y.data()[i]) * upstream.data()[i];
    }
    return sum;
  };
  const std::vector<Matrix> analytic =
      RunAttentionLayer(&layer, h, edges, upstream, false);
  constexpr float kStep = 1e-2f;
  double largest = 0.0;
  for (size_t k : {size_t{1}, size_t{2}}) {  // Theta_a, then a
    Parameter* p = weights[k];
    const Matrix& grad = analytic[2 + k];
    for (size_t i = 0; i < p->value.size(); ++i) {
      const float original = p->value.data()[i];
      p->value.data()[i] = original + kStep;
      const double plus = loss();
      p->value.data()[i] = original - kStep;
      const double minus = loss();
      p->value.data()[i] = original;
      const double numeric = (plus - minus) / (2.0 * kStep);
      largest = std::max(largest, std::abs(numeric));
      EXPECT_NEAR(grad.data()[i], numeric,
                  2e-3 * std::max(1.0, std::abs(numeric)))
          << (k == 1 ? "Theta_a" : "a") << " entry " << i;
    }
  }
  EXPECT_GT(largest, 0.1);
}

}  // namespace
}  // namespace neursc
