#include "nn/tape.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "nn/simd.h"

namespace neursc {

// An op is its method below, which computes the forward value, and its
// case in BackwardStep. Both must keep their arithmetic and evaluation
// order, which golden_output_test pins through the trained weights and
// tape_test pins op by op against scalar reference loops. Forward values
// run on the dispatched nn/simd.h kernels (whose scalar and AVX2 variants
// agree bit for bit), Matrix::MatMulInto or a scalar loop; the ops that
// accumulate (MatMul, Aggregate, SumRows) start from the zero-filled
// slot that AllocSlot hands out. In the backward cases an elementwise
// delta is added as grad + (g * y), the same float as adding a delta
// matrix, and products run into zeroed scratch that is then added, never
// straight into a gradient that may already hold a contribution. The
// elementwise, row-structured and message-passing cases make one call per
// input gradient to an nn/simd.h accumulate kernel (AddMul, AddScaled, the
// ReLU masks, AddRows, AddBlock, AddRowBroadcast, AddColBroadcastMul,
// ScatterAddRows, EdgeScoresBackward, Aggregate), never one per row or
// edge, and every variant of each adds each delta entry onto the gradient
// in this same order; the per-row and per-edge dot products, ReduceSum and
// the softmax cases keep their scalar loops.
//
// A gradient slot starts at +0.0 and only ever receives additions, and a
// float sum is -0.0 only when both addends are, so no gradient slot holds
// -0.0. Adding g and adding 0.0f + g therefore give the same bits, which
// is why the message-passing backward cases may add each per-edge delta
// straight onto the input's gradient and still equal the gather/scatter
// compositions the header names (docs/execution.md).

void GradientSink::Accumulate(Parameter* param, const Matrix& delta) {
  auto it = buffers_.find(param);
  if (it == buffers_.end()) {
    it = buffers_
             .emplace(param,
                      Matrix(param->value.rows(), param->value.cols()))
             .first;
  }
  it->second.AddInPlace(delta);
}

void GradientSink::ReduceIntoParameters() const {
  for (const auto& [param, buffer] : buffers_) {
    param->grad.AddInPlace(buffer);
  }
}

void Tape::Reset() {
  nodes_.clear();
  records_.clear();
  indices_.clear();
  slots_used_ = 0;
  grad_slots_used_ = 0;
  backward_done_ = false;
  gradient_sink_ = nullptr;
}

size_t Tape::arena_bytes() const {
  size_t bytes = 0;
  for (const Matrix& m : slots_) bytes += m.capacity() * sizeof(float);
  for (const Matrix& m : grad_slots_) bytes += m.capacity() * sizeof(float);
  return bytes;
}

Matrix* Tape::AllocSlot(std::deque<Matrix>* arena, size_t* used, size_t rows,
                        size_t cols) {
  bool grew = false;
  if (*used == arena->size()) {
    arena->emplace_back();
    grew = true;
  }
  Matrix& m = (*arena)[(*used)++];
  if (m.capacity() < rows * cols) grew = true;
  m.Reshape(rows, cols);
  if (grew) {
    ++arena_grows_;
    NEURSC_COUNTER_INC("eval/arena_grows");
  }
  return &m;
}

Tape::Record& Tape::AppendRecord(OpKind kind, int out) {
  Record& r = records_.emplace_back();
  r.kind = kind;
  r.out = out;
  return r;
}

Var Tape::Emit(const Matrix* value, OpKind kind, Var a, Var b, double scalar,
               std::span<const uint32_t> indices,
               std::span<const uint32_t> more_indices) {
  const bool req = Requires(a.id) || (b.valid() && Requires(b.id));
  nodes_.push_back(Node{value, nullptr, nullptr, req});
  const int id = static_cast<int>(nodes_.size()) - 1;
  if (req) {
    Record& r = AppendRecord(kind, id);
    r.a = a.id;
    r.b = b.id;
    r.scalar = scalar;
    r.index_begin = static_cast<uint32_t>(indices_.size());
    r.index_count =
        static_cast<uint32_t>(indices.size() + more_indices.size());
    indices_.insert(indices_.end(), indices.begin(), indices.end());
    indices_.insert(indices_.end(), more_indices.begin(), more_indices.end());
  }
  return Var{id};
}

Matrix& Tape::EnsureGrad(int id) {
  Node& node = nodes_[id];
  if (node.grad == nullptr) {
    node.grad = AllocSlot(&grad_slots_, &grad_slots_used_,
                          node.value->rows(), node.value->cols());
  }
  return *node.grad;
}

Var Tape::Constant(const Matrix& value) {
  Matrix* out = AllocValue(value.rows(), value.cols());
  std::copy(value.data(), value.data() + value.size(), out->data());
  nodes_.push_back(Node{out, nullptr, nullptr, false});
  return Var{static_cast<int>(nodes_.size()) - 1};
}

Var Tape::Leaf(Parameter* param) {
  NEURSC_CHECK(param != nullptr);
  nodes_.push_back(Node{&param->value, nullptr, param, true});
  const int id = static_cast<int>(nodes_.size()) - 1;
  AppendRecord(OpKind::kLeaf, id);
  return Var{id};
}

Var Tape::MatMul(Var a, Var b) {
  const Matrix& av = Value(a);
  const Matrix& bv = Value(b);
  Matrix* out = AllocValue(av.rows(), bv.cols());
  Matrix::MatMulInto(av, bv, out);
  return Emit(out, OpKind::kMatMul, a, b);
}

Var Tape::Add(Var a, Var b) {
  const Matrix& av = Value(a);
  const Matrix& bv = Value(b);
  NEURSC_CHECK(av.rows() == bv.rows() && av.cols() == bv.cols());
  Matrix* out = AllocValue(av.rows(), av.cols());
  simd::Add(av.data(), bv.data(), out->data(), av.size());
  return Emit(out, OpKind::kAdd, a, b);
}

Var Tape::AddRowBroadcast(Var x, Var bias) {
  const Matrix& xv = Value(x);
  const Matrix& bv = Value(bias);
  NEURSC_CHECK(bv.rows() == 1 && bv.cols() == xv.cols());
  Matrix* out = AllocValue(xv.rows(), xv.cols());
  simd::AddRowBroadcast(xv.data(), bv.data(), out->data(), xv.rows(),
                        xv.cols());
  return Emit(out, OpKind::kAddRowBroadcast, x, bias);
}

// Sub, Mul and Scale stay scalar loops: the default WEst and critic run them
// only on 1-row values, and Mul and Sub appear only in the EU/KL/JS
// ablations.

Var Tape::Sub(Var a, Var b) {
  const Matrix& av = Value(a);
  const Matrix& bv = Value(b);
  NEURSC_CHECK(av.rows() == bv.rows() && av.cols() == bv.cols());
  Matrix* out = AllocValue(av.rows(), av.cols());
  for (size_t i = 0; i < av.size(); ++i) {
    out->data()[i] = av.data()[i] - bv.data()[i];
  }
  return Emit(out, OpKind::kSub, a, b);
}

Var Tape::Mul(Var a, Var b) {
  const Matrix& av = Value(a);
  const Matrix& bv = Value(b);
  NEURSC_CHECK(av.rows() == bv.rows() && av.cols() == bv.cols());
  Matrix* out = AllocValue(av.rows(), av.cols());
  for (size_t i = 0; i < av.size(); ++i) {
    out->data()[i] = av.data()[i] * bv.data()[i];
  }
  return Emit(out, OpKind::kMul, a, b);
}

Var Tape::Scale(Var a, float s) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  for (size_t i = 0; i < av.size(); ++i) out->data()[i] = av.data()[i] * s;
  return Emit(out, OpKind::kScale, a, Var{}, s);
}

Var Tape::Relu(Var a) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  simd::Relu(av.data(), out->data(), av.size());
  return Emit(out, OpKind::kRelu, a);
}

Var Tape::LeakyRelu(Var a, float negative_slope) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  simd::LeakyRelu(av.data(), negative_slope, out->data(), av.size());
  return Emit(out, OpKind::kLeakyRelu, a, Var{}, negative_slope);
}

Var Tape::Tanh(Var a) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  for (size_t i = 0; i < av.size(); ++i) {
    out->data()[i] = std::tanh(av.data()[i]);
  }
  return Emit(out, OpKind::kTanh, a);
}

Var Tape::Exp(Var a) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  for (size_t i = 0; i < av.size(); ++i) {
    out->data()[i] = std::exp(std::clamp(av.data()[i], -30.0f, 30.0f));
  }
  return Emit(out, OpKind::kExp, a);
}

Var Tape::Log(Var a) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  for (size_t i = 0; i < av.size(); ++i) {
    out->data()[i] = std::log(std::max(av.data()[i], 1e-12f));
  }
  return Emit(out, OpKind::kLog, a);
}

Var Tape::RowSoftmax(Var a) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  // Per-row max subtraction; the exp sum accumulates in double.
  for (size_t r = 0; r < av.rows(); ++r) {
    const float* xrow = av.row(r);
    float* orow = out->row(r);
    float mx = xrow[0];
    for (size_t c = 1; c < av.cols(); ++c) mx = std::max(mx, xrow[c]);
    double sum = 0.0;
    for (size_t c = 0; c < av.cols(); ++c) {
      orow[c] = std::exp(xrow[c] - mx);
      sum += orow[c];
    }
    float inv = static_cast<float>(1.0 / std::max(sum, 1e-30));
    for (size_t c = 0; c < av.cols(); ++c) orow[c] *= inv;
  }
  return Emit(out, OpKind::kRowSoftmax, a);
}

Var Tape::ConcatCols(Var a, Var b) {
  const Matrix& av = Value(a);
  const Matrix& bv = Value(b);
  NEURSC_CHECK(av.rows() == bv.rows());
  Matrix* out = AllocValue(av.rows(), av.cols() + bv.cols());
  for (size_t r = 0; r < av.rows(); ++r) {
    std::copy(av.row(r), av.row(r) + av.cols(), out->row(r));
    std::copy(bv.row(r), bv.row(r) + bv.cols(), out->row(r) + av.cols());
  }
  return Emit(out, OpKind::kConcatCols, a, b);
}

Var Tape::ConcatRows(const std::vector<Var>& parts) {
  NEURSC_CHECK(!parts.empty());
  size_t total_rows = 0;
  bool req = false;
  for (Var p : parts) {
    total_rows += Value(p).rows();
    req = req || Requires(p.id);
  }
  Matrix* out = AllocValue(total_rows, Value(parts[0]).cols());
  size_t row = 0;
  for (Var p : parts) {
    const Matrix& pv = Value(p);
    NEURSC_CHECK(pv.cols() == out->cols());
    std::copy(pv.data(), pv.data() + pv.size(), out->row(row));
    row += pv.rows();
  }
  nodes_.push_back(Node{out, nullptr, nullptr, req});
  const int id = static_cast<int>(nodes_.size()) - 1;
  if (req) {
    Record& r = AppendRecord(OpKind::kConcatRows, id);
    r.index_begin = static_cast<uint32_t>(indices_.size());
    r.index_count = static_cast<uint32_t>(parts.size());
    for (Var p : parts) indices_.push_back(static_cast<uint32_t>(p.id));
  }
  return Var{id};
}

Var Tape::GatherRows(Var x, const std::vector<uint32_t>& rows) {
  const Matrix& xv = Value(x);
  Matrix* out = AllocValue(rows.size(), xv.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    NEURSC_CHECK(rows[i] < xv.rows());
    std::copy(xv.row(rows[i]), xv.row(rows[i]) + xv.cols(), out->row(i));
  }
  return Emit(out, OpKind::kGatherRows, x, Var{}, 0.0, rows);
}

namespace {

/// An edge list of equal-length src and dst lists, src indices below
/// `src_rows` and dst indices below `dst_rows`.
void CheckEdges(const std::vector<uint32_t>& src,
                const std::vector<uint32_t>& dst, size_t src_rows,
                size_t dst_rows) {
  NEURSC_CHECK(src.size() == dst.size()) << "edge list length mismatch";
  for (size_t e = 0; e < src.size(); ++e) {
    NEURSC_CHECK(src[e] < src_rows && dst[e] < dst_rows)
        << "edge index out of range";
  }
}

}  // namespace

Var Tape::EdgeScores(Var x, Var a, const std::vector<uint32_t>& src,
                     const std::vector<uint32_t>& dst) {
  const Matrix& xv = Value(x);
  const Matrix& av = Value(a);
  NEURSC_CHECK(av.rows() == 2 * xv.cols() && av.cols() == 1);
  CheckEdges(src, dst, xv.rows(), xv.rows());
  Matrix* out = AllocValue(src.size(), 1);
  simd::EdgeScores(xv.data(), av.data(), src.data(), dst.data(), src.size(),
                   xv.cols(), out->data());
  return Emit(out, OpKind::kEdgeScores, x, a, 0.0, src, dst);
}

Var Tape::Aggregate(Var x, const std::vector<uint32_t>& src,
                    const std::vector<uint32_t>& dst, size_t num_rows,
                    Var w) {
  const Matrix& xv = Value(x);
  CheckEdges(src, dst, xv.rows(), num_rows);
  const float* wd = nullptr;
  if (w.valid()) {
    const Matrix& wv = Value(w);
    NEURSC_CHECK(wv.rows() == src.size() && wv.cols() == 1);
    wd = wv.data();
  }
  Matrix* out = AllocValue(num_rows, xv.cols());
  simd::Aggregate(xv.data(), src.data(), dst.data(), wd, src.size(),
                  xv.cols(), out->data());
  return Emit(out, OpKind::kAggregate, x, w, 0.0, src, dst);
}

Var Tape::SegmentSoftmax(Var logits, const std::vector<uint32_t>& segments,
                         size_t num_segments) {
  const Matrix& xv = Value(logits);
  NEURSC_CHECK(xv.cols() == 1 && segments.size() == xv.rows());
  Matrix* out = AllocValue(xv.rows(), 1);
  // Max-subtracted, exp sums in double; seg_max_ and seg_sum_ are reused
  // across passes.
  seg_max_.assign(num_segments, -1e30f);
  for (size_t i = 0; i < segments.size(); ++i) {
    NEURSC_CHECK(segments[i] < num_segments);
    seg_max_[segments[i]] = std::max(seg_max_[segments[i]], xv.at(i, 0));
  }
  seg_sum_.assign(num_segments, 0.0);
  for (size_t i = 0; i < segments.size(); ++i) {
    float e = std::exp(xv.at(i, 0) - seg_max_[segments[i]]);
    out->at(i, 0) = e;
    seg_sum_[segments[i]] += e;
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    out->at(i, 0) = static_cast<float>(
        out->at(i, 0) / std::max(seg_sum_[segments[i]], 1e-30));
  }
  return Emit(out, OpKind::kSegmentSoftmax, logits, Var{},
              static_cast<double>(num_segments), segments);
}

Var Tape::ColBroadcastMul(Var x, Var w) {
  const Matrix& xv = Value(x);
  const Matrix& wv = Value(w);
  NEURSC_CHECK(wv.cols() == 1 && wv.rows() == xv.rows());
  Matrix* out = AllocValue(xv.rows(), xv.cols());
  simd::ColBroadcastMul(xv.data(), wv.data(), out->data(), xv.rows(),
                        xv.cols());
  return Emit(out, OpKind::kColBroadcastMul, x, w);
}

Var Tape::SumRows(Var x) {
  const Matrix& xv = Value(x);
  Matrix* out = AllocValue(1, xv.cols());
  // Accumulates onto the zero-filled slot in row order.
  simd::AddRows(xv.data(), xv.rows(), xv.cols(), out->data());
  return Emit(out, OpKind::kSumRows, x);
}

Var Tape::ReduceSum(Var x) {
  const Matrix& xv = Value(x);
  Matrix* out = AllocValue(1, 1);
  out->at(0, 0) = xv.Sum();
  return Emit(out, OpKind::kReduceSum, x);
}

Var Tape::QErrorLoss(Var pred, double target) {
  constexpr double kEps = 1e-9;
  const Matrix& pv = Value(pred);
  NEURSC_CHECK(pv.rows() == 1 && pv.cols() == 1);
  const double c_hat = pv.at(0, 0);
  const double c = std::max(target, 1.0);
  const double under = c / (c_hat + kEps);  // penalizes underestimation
  const double over = c_hat / c;            // penalizes overestimation
  Matrix* out = AllocValue(1, 1);
  out->at(0, 0) = static_cast<float>(std::max(under, over));
  // d(loss)/d(pred) of whichever branch of the max is active.
  const double derivative =
      (under >= over) ? -c / ((c_hat + kEps) * (c_hat + kEps)) : 1.0 / c;
  return Emit(out, OpKind::kQErrorLoss, pred, Var{}, derivative);
}

void Tape::Backward(Var loss) {
  NEURSC_CHECK(!backward_done_) << "Backward() may be called once per tape";
  backward_done_ = true;
  const Matrix& lv = Value(loss);
  NEURSC_CHECK(lv.rows() == 1 && lv.cols() == 1)
      << "Backward target must be scalar";
  EnsureGrad(loss.id).at(0, 0) = 1.0f;
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    const Matrix* g = nodes_[it->out].grad;
    if (g == nullptr || g->empty()) continue;
    BackwardStep(*it, *g);
  }
}

void Tape::BackwardStep(const Record& r, const Matrix& g) {
  const size_t n = g.size();
  const float* gd = g.data();
  switch (r.kind) {
    case OpKind::kLeaf: {
      Parameter* param = nodes_[r.out].param;
      if (gradient_sink_ != nullptr) {
        gradient_sink_->Accumulate(param, g);
      } else {
        param->grad.AddInPlace(g);
      }
      break;
    }
    case OpKind::kMatMul:
      if (Requires(r.a)) {
        scratch_.Reshape(g.rows(), V(r.b).rows());
        Matrix::MatMulTransposeBInto(g, V(r.b), &scratch_);
        EnsureGrad(r.a).AddInPlace(scratch_);
      }
      if (Requires(r.b)) {
        scratch_.Reshape(V(r.a).cols(), g.cols());
        Matrix::MatMulTransposeAInto(V(r.a), g, &scratch_);
        EnsureGrad(r.b).AddInPlace(scratch_);
      }
      break;
    case OpKind::kAdd:
      if (Requires(r.a)) EnsureGrad(r.a).AddInPlace(g);
      if (Requires(r.b)) EnsureGrad(r.b).AddInPlace(g);
      break;
    case OpKind::kAddRowBroadcast:
      if (Requires(r.a)) EnsureGrad(r.a).AddInPlace(g);
      if (Requires(r.b)) {
        simd::AddRows(gd, g.rows(), g.cols(), EnsureGrad(r.b).data());
      }
      break;
    case OpKind::kSub:
      if (Requires(r.a)) EnsureGrad(r.a).AddInPlace(g);
      if (Requires(r.b)) simd::AddScaled(gd, -1.0f, EnsureGrad(r.b).data(), n);
      break;
    case OpKind::kMul:
      if (Requires(r.a)) {
        simd::AddMul(gd, V(r.b).data(), EnsureGrad(r.a).data(), n);
      }
      if (Requires(r.b)) {
        simd::AddMul(gd, V(r.a).data(), EnsureGrad(r.b).data(), n);
      }
      break;
    case OpKind::kScale:
      simd::AddScaled(gd, static_cast<float>(r.scalar),
                      EnsureGrad(r.a).data(), n);
      break;
    case OpKind::kRelu:
      simd::AddReluGrad(V(r.a).data(), gd, EnsureGrad(r.a).data(), n);
      break;
    case OpKind::kLeakyRelu:
      simd::AddLeakyReluGrad(V(r.a).data(), gd, static_cast<float>(r.scalar),
                             EnsureGrad(r.a).data(), n);
      break;
    case OpKind::kTanh: {
      const float* y = V(r.out).data();
      float* ag = EnsureGrad(r.a).data();
      for (size_t i = 0; i < n; ++i) ag[i] += gd[i] * (1.0f - y[i] * y[i]);
      break;
    }
    case OpKind::kExp: {
      // In the clamped region this uses the boundary derivative exp(+-30)
      // rather than the true 0, so saturated predictions still receive a
      // corrective signal (straight-through at the clamp).
      simd::AddMul(gd, V(r.out).data(), EnsureGrad(r.a).data(), n);
      break;
    }
    case OpKind::kLog: {
      const float* x = V(r.a).data();
      float* ag = EnsureGrad(r.a).data();
      for (size_t i = 0; i < n; ++i) ag[i] += gd[i] / std::max(x[i], 1e-12f);
      break;
    }
    case OpKind::kRowSoftmax: {
      const Matrix& y = V(r.out);
      Matrix& ag = EnsureGrad(r.a);
      for (size_t row = 0; row < y.rows(); ++row) {
        double dot = 0.0;
        for (size_t c = 0; c < y.cols(); ++c) {
          dot += static_cast<double>(g.at(row, c)) * y.at(row, c);
        }
        for (size_t c = 0; c < y.cols(); ++c) {
          ag.at(row, c) +=
              y.at(row, c) * (g.at(row, c) - static_cast<float>(dot));
        }
      }
      break;
    }
    case OpKind::kConcatCols: {
      const size_t acols = V(r.a).cols();
      if (Requires(r.a)) {
        simd::AddBlock(gd, g.cols(), g.rows(), acols, EnsureGrad(r.a).data());
      }
      if (Requires(r.b)) {
        simd::AddBlock(gd + acols, g.cols(), g.rows(), g.cols() - acols,
                       EnsureGrad(r.b).data());
      }
      break;
    }
    case OpKind::kConcatRows: {
      size_t offset = 0;
      for (uint32_t k = 0; k < r.index_count; ++k) {
        const int part = static_cast<int>(indices_[r.index_begin + k]);
        const Matrix& pv = V(part);
        if (Requires(part)) {
          // The part's rows are one contiguous block of g.
          float* pg = EnsureGrad(part).data();
          simd::Add(pg, g.row(offset), pg, pv.size());
        }
        offset += pv.rows();
      }
      break;
    }
    case OpKind::kGatherRows: {
      // Gathered rows scatter their gradient back, repeats in row order.
      simd::ScatterAddRows(gd, indices_.data() + r.index_begin,
                           r.index_count, g.cols(), EnsureGrad(r.a).data());
      break;
    }
    case OpKind::kEdgeScores: {
      // The order MatMul(ConcatCols(GatherRows(x, dst), GatherRows(x,
      // src)), a) backpropagates in: a's gradient summed over edges from
      // zero and then added, then x's src-side rows, then its dst side,
      // each in edge order.
      const size_t edges = r.index_count / 2;
      const uint32_t* src = indices_.data() + r.index_begin;
      const uint32_t* dst = src + edges;
      const Matrix& xv = V(r.a);
      Matrix* ag = Requires(r.b) ? &EnsureGrad(r.b) : nullptr;
      float* xg = Requires(r.a) ? EnsureGrad(r.a).data() : nullptr;
      if (ag != nullptr) scratch_.Reshape(2 * xv.cols(), 1);
      simd::EdgeScoresBackward(xv.data(), V(r.b).data(), gd, src, dst, edges,
                               xv.cols(), ag != nullptr ? scratch_.data()
                                                        : nullptr,
                               xg);
      if (ag != nullptr) ag->AddInPlace(scratch_);
      break;
    }
    case OpKind::kAggregate: {
      // The order the gather/ColBroadcastMul/scatter composition
      // backpropagates in: the weight gradient (a float dot product per
      // edge, in column order), then x's gradient, which is Aggregate
      // over the reversed edges.
      const size_t edges = r.index_count / 2;
      const uint32_t* src = indices_.data() + r.index_begin;
      const uint32_t* dst = src + edges;
      const Matrix& xv = V(r.a);
      const float* w = r.b >= 0 ? V(r.b).data() : nullptr;
      if (w != nullptr && Requires(r.b)) {
        Matrix& wg = EnsureGrad(r.b);
        for (size_t e = 0; e < edges; ++e) {
          const float* grow = g.row(dst[e]);
          const float* xrow = xv.row(src[e]);
          float dot = 0.0f;
          for (size_t c = 0; c < g.cols(); ++c) dot += grow[c] * xrow[c];
          wg.at(e, 0) += dot;
        }
      }
      if (Requires(r.a)) {
        simd::Aggregate(gd, dst, src, w, edges, g.cols(),
                        EnsureGrad(r.a).data());
      }
      break;
    }
    case OpKind::kSegmentSoftmax: {
      // dL/dx_i = y_i * (g_i - sum_{j in seg(i)} g_j y_j)
      const uint32_t* segments = indices_.data() + r.index_begin;
      const Matrix& y = V(r.out);
      seg_sum_.assign(static_cast<size_t>(r.scalar), 0.0);
      for (size_t i = 0; i < r.index_count; ++i) {
        seg_sum_[segments[i]] += static_cast<double>(g.at(i, 0)) * y.at(i, 0);
      }
      Matrix& xg = EnsureGrad(r.a);
      for (size_t i = 0; i < r.index_count; ++i) {
        xg.at(i, 0) += y.at(i, 0) * (g.at(i, 0) -
                                     static_cast<float>(seg_sum_[segments[i]]));
      }
      break;
    }
    case OpKind::kColBroadcastMul: {
      const Matrix& xv = V(r.a);
      const Matrix& wv = V(r.b);
      if (Requires(r.a)) {
        simd::AddColBroadcastMul(gd, wv.data(), EnsureGrad(r.a).data(),
                                 g.rows(), g.cols());
      }
      if (Requires(r.b)) {
        Matrix& wg = EnsureGrad(r.b);
        for (size_t row = 0; row < g.rows(); ++row) {
          float dot = 0.0f;
          for (size_t c = 0; c < g.cols(); ++c) {
            dot += g.at(row, c) * xv.at(row, c);
          }
          wg.at(row, 0) += dot;
        }
      }
      break;
    }
    case OpKind::kSumRows: {
      float* xg = EnsureGrad(r.a).data();
      simd::AddRowBroadcast(xg, gd, xg, V(r.a).rows(), g.cols());
      break;
    }
    case OpKind::kReduceSum: {
      const float gs = g.at(0, 0);
      Matrix& xg = EnsureGrad(r.a);
      for (size_t i = 0; i < xg.size(); ++i) xg.data()[i] += gs;
      break;
    }
    case OpKind::kQErrorLoss:
      EnsureGrad(r.a).at(0, 0) += static_cast<float>(g.at(0, 0) * r.scalar);
      break;
  }
}

namespace {

thread_local Tape thread_tape;
thread_local bool thread_tape_in_use = false;

}  // namespace

ThreadTape::ThreadTape() : tape_(&thread_tape) {
  NEURSC_CHECK(!thread_tape_in_use) << "nested ThreadTape on one thread";
  thread_tape_in_use = true;
  tape_->Reset();
}

ThreadTape::~ThreadTape() { thread_tape_in_use = false; }

}  // namespace neursc
