// Differential suite for the fused message-passing ops, Tape::EdgeScores
// and Tape::Aggregate, and for BipartiteAttentionLayer, which runs both.
//
// The oracle is the composition each op replaced: GatherRows ->
// ConcatCols -> MatMul for the edge scores, and GatherRows ->
// [ColBroadcastMul] -> a scalar scatter loop for the aggregate. The
// scatter's backward, which copied the output gradient of row dst[e] into
// edge e, is the upstream gradient the oracle hands its gathered rows.
// Forward values and every input gradient must match bit for bit, -0.0
// included; in the op-level cases each input gradient is first pre-filled
// by a later term of the loss. Two NaNs match each other: when two NaNs meet in one addition
// IEEE 754 leaves open which payload the sum carries (simd_kernels_test).

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

TEST(MessagePassingTest, EdgeScoresMatchGatherConcatMatMul) {
  Rng rng(11);
  for (const Shape& shape : kShapes) {
    for (bool special : {false, true}) {
      SCOPED_TRACE(Name(shape, special));
      const Edges edges = RandomEdges(shape.n, shape.n, shape.edges, &rng);
      const std::vector<Matrix> inputs = {
          Values(shape.n, shape.d, special, &rng),
          Values(2 * shape.d, 1, special, &rng)};
      std::vector<Matrix> pre_fill;
      for (const Matrix& in : inputs) {
        pre_fill.push_back(Values(in.rows(), in.cols(), false, &rng));
      }
      const Matrix upstream = Values(shape.edges, 1, false, &rng);

      std::vector<Parameter> fused(inputs.begin(), inputs.end());
      Matrix fused_value;
      {
        Tape tape;
        std::vector<Var> leaves = {tape.Leaf(&fused[0]), tape.Leaf(&fused[1])};
        Var y = tape.EdgeScores(leaves[0], leaves[1], edges.src, edges.dst);
        fused_value = tape.Value(y);
        tape.Backward(Loss(&tape, y, upstream, leaves, pre_fill));
      }

      std::vector<Parameter> oracle(inputs.begin(), inputs.end());
      Matrix oracle_value;
      {
        Tape tape;
        std::vector<Var> leaves = {tape.Leaf(&oracle[0]),
                                   tape.Leaf(&oracle[1])};
        // Named, so the dst gather is recorded first; within one
        // expression the compiler would pick the order.
        Var feats_dst = tape.GatherRows(leaves[0], edges.dst);
        Var feats_src = tape.GatherRows(leaves[0], edges.src);
        Var pair = tape.ConcatCols(feats_dst, feats_src);
        Var y = tape.MatMul(pair, leaves[1]);
        oracle_value = tape.Value(y);
        tape.Backward(Loss(&tape, y, upstream, leaves, pre_fill));
      }

      EXPECT_TRUE(SameMatrix(fused_value, oracle_value, "value"));
      EXPECT_TRUE(SameMatrix(fused[0].grad, oracle[0].grad, "x gradient"));
      EXPECT_TRUE(SameMatrix(fused[1].grad, oracle[1].grad, "a gradient"));
    }
  }
}

TEST(MessagePassingTest, AttentionLayerMatchesUnfusedChain) {
  // BipartiteAttentionLayer against the chain it ran before the fused
  // ops: the output and the gradients of h, Theta, Theta_a and a.
  constexpr size_t kIn = 5;
  constexpr size_t kOut = 9;
  Rng rng(13);
  for (const Shape& shape : kShapes) {
    for (bool special : {false, true}) {
      SCOPED_TRACE(Name(shape, special));
      const size_t n = shape.n;
      BipartiteAttentionLayer layer(kIn, kOut, &rng);
      const std::vector<Parameter*> weights = layer.Parameters();
      const Matrix h = Values(n, kIn, special, &rng);
      const Matrix upstream = Values(n, kOut, false, &rng);
      // The random edges, then the self-loop of every vertex that the
      // layer's caller appends for Eq. 4's alpha_uu.
      Edges all = RandomEdges(n, n, shape.edges, &rng);
      for (uint32_t v = 0; v < n; ++v) {
        all.src.push_back(v);
        all.dst.push_back(v);
      }

      // Returns the output, then the gradients of h and of the weights.
      auto run = [&](bool fused) {
        for (Parameter* p : weights) p->ZeroGrad();
        Parameter hp(h);
        Tape tape;
        Var hv = tape.Leaf(&hp);
        Matrix value;
        if (fused) {
          EdgeIndex index;
          for (size_t e = 0; e < all.src.size(); ++e) {
            index.Add(all.src[e], all.dst[e]);
          }
          Var y = layer.Forward(&tape, hv, index);
          value = tape.Value(y);
          tape.Backward(
              tape.ReduceSum(tape.Mul(y, tape.Constant(upstream))));
        } else {
          Var theta = tape.Leaf(weights[0]);
          Var theta_attn = tape.Leaf(weights[1]);
          Var attn = tape.Leaf(weights[2]);
          Var projected = tape.MatMul(hv, theta);
          Var attn_feats = tape.MatMul(hv, theta_attn);
          Var feats_dst = tape.GatherRows(attn_feats, all.dst);
          Var feats_src = tape.GatherRows(attn_feats, all.src);
          Var pair = tape.ConcatCols(feats_dst, feats_src);
          Var logits = tape.LeakyRelu(tape.MatMul(pair, attn));
          Var alpha = tape.SegmentSoftmax(logits, all.dst, n);
          Var weighted =
              tape.ColBroadcastMul(tape.GatherRows(projected, all.src), alpha);
          value = ScatterLoop(tape.Value(weighted), all.dst, n);
          tape.Backward(tape.ReduceSum(tape.Mul(
              weighted, tape.Constant(GatherLoop(upstream, all.dst)))));
        }
        std::vector<Matrix> out = {value, hp.grad};
        for (Parameter* p : weights) out.push_back(p->grad);
        return out;
      };

      const std::vector<Matrix> got = run(true);
      const std::vector<Matrix> want = run(false);
      const char* kWhat[] = {"output", "h gradient", "Theta gradient",
                             "Theta_a gradient", "a gradient"};
      for (size_t k = 0; k < got.size(); ++k) {
        EXPECT_TRUE(SameMatrix(got[k], want[k], kWhat[k]));
      }
    }
  }
}

}  // namespace
}  // namespace neursc
