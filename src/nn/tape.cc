#include "nn/tape.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "nn/kernels.h"

namespace neursc {

// Forward values come from the kernels in nn/kernels.h. The backward
// cases must keep their arithmetic and accumulation order, which
// golden_output_test pins through the trained weights: an elementwise
// delta is added as grad + (g * y), the same float as adding a delta
// matrix, and products run into zeroed scratch that is then added, never
// straight into a gradient that may already hold a contribution.

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
  NEURSC_GAUGE_SET("eval/arena_bytes", static_cast<double>(arena_bytes()));
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
               std::span<const uint32_t> indices) {
  const bool req = Requires(a.id) || (b.valid() && Requires(b.id));
  nodes_.push_back(Node{value, nullptr, nullptr, req});
  const int id = static_cast<int>(nodes_.size()) - 1;
  if (req) {
    Record& r = AppendRecord(kind, id);
    r.a = a.id;
    r.b = b.id;
    r.scalar = scalar;
    r.index_begin = static_cast<uint32_t>(indices_.size());
    r.index_count = static_cast<uint32_t>(indices.size());
    indices_.insert(indices_.end(), indices.begin(), indices.end());
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
  fwd::Copy(value, out);
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
  Matrix* out = AllocValue(av.rows(), av.cols());
  fwd::Add(av, Value(b), out);
  return Emit(out, OpKind::kAdd, a, b);
}

Var Tape::AddRowBroadcast(Var x, Var bias) {
  const Matrix& xv = Value(x);
  Matrix* out = AllocValue(xv.rows(), xv.cols());
  fwd::AddRowBroadcast(xv, Value(bias), out);
  return Emit(out, OpKind::kAddRowBroadcast, x, bias);
}

Var Tape::Sub(Var a, Var b) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  fwd::Sub(av, Value(b), out);
  return Emit(out, OpKind::kSub, a, b);
}

Var Tape::Mul(Var a, Var b) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  fwd::Mul(av, Value(b), out);
  return Emit(out, OpKind::kMul, a, b);
}

Var Tape::Scale(Var a, float s) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  fwd::Scale(av, s, out);
  return Emit(out, OpKind::kScale, a, Var{}, s);
}

Var Tape::Relu(Var a) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  fwd::Relu(av, out);
  return Emit(out, OpKind::kRelu, a);
}

Var Tape::LeakyRelu(Var a, float negative_slope) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  fwd::LeakyRelu(av, negative_slope, out);
  return Emit(out, OpKind::kLeakyRelu, a, Var{}, negative_slope);
}

Var Tape::Sigmoid(Var a) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  fwd::Sigmoid(av, out);
  return Emit(out, OpKind::kSigmoid, a);
}

Var Tape::Tanh(Var a) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  fwd::Tanh(av, out);
  return Emit(out, OpKind::kTanh, a);
}

Var Tape::Exp(Var a) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  fwd::Exp(av, out);
  return Emit(out, OpKind::kExp, a);
}

Var Tape::Log(Var a) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  fwd::Log(av, out);
  return Emit(out, OpKind::kLog, a);
}

Var Tape::RowSoftmax(Var a) {
  const Matrix& av = Value(a);
  Matrix* out = AllocValue(av.rows(), av.cols());
  fwd::RowSoftmax(av, out);
  return Emit(out, OpKind::kRowSoftmax, a);
}

Var Tape::ConcatCols(Var a, Var b) {
  const Matrix& av = Value(a);
  const Matrix& bv = Value(b);
  Matrix* out = AllocValue(av.rows(), av.cols() + bv.cols());
  fwd::ConcatCols(av, bv, out);
  return Emit(out, OpKind::kConcatCols, a, b);
}

Var Tape::ConcatRows(const std::vector<Var>& parts) {
  NEURSC_CHECK(!parts.empty());
  size_t total_rows = 0;
  bool req = false;
  concat_parts_.clear();
  for (Var p : parts) {
    concat_parts_.push_back(&Value(p));
    total_rows += concat_parts_.back()->rows();
    req = req || Requires(p.id);
  }
  Matrix* out = AllocValue(total_rows, concat_parts_[0]->cols());
  fwd::ConcatRows(concat_parts_, out);
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
  fwd::GatherRows(xv, rows, out);
  return Emit(out, OpKind::kGatherRows, x, Var{}, 0.0, rows);
}

Var Tape::ScatterAddRows(Var x, const std::vector<uint32_t>& targets,
                         size_t num_rows) {
  const Matrix& xv = Value(x);
  Matrix* out = AllocValue(num_rows, xv.cols());
  fwd::ScatterAddRows(xv, targets, out);
  return Emit(out, OpKind::kScatterAddRows, x, Var{}, 0.0, targets);
}

Var Tape::SegmentSoftmax(Var logits, const std::vector<uint32_t>& segments,
                         size_t num_segments) {
  const Matrix& xv = Value(logits);
  Matrix* out = AllocValue(xv.rows(), 1);
  fwd::SegmentSoftmax(xv, segments, num_segments, out, &seg_max_, &seg_sum_);
  return Emit(out, OpKind::kSegmentSoftmax, logits, Var{},
              static_cast<double>(num_segments), segments);
}

Var Tape::ColBroadcastMul(Var x, Var w) {
  const Matrix& xv = Value(x);
  Matrix* out = AllocValue(xv.rows(), xv.cols());
  fwd::ColBroadcastMul(xv, Value(w), out);
  return Emit(out, OpKind::kColBroadcastMul, x, w);
}

Var Tape::SumRows(Var x) {
  const Matrix& xv = Value(x);
  Matrix* out = AllocValue(1, xv.cols());
  fwd::SumRows(xv, out);
  return Emit(out, OpKind::kSumRows, x);
}

Var Tape::MeanRows(Var x) {
  size_t n = Value(x).rows();
  Var s = SumRows(x);
  return n > 0 ? Scale(s, 1.0f / static_cast<float>(n)) : s;
}

Var Tape::ReduceSum(Var x) {
  const Matrix& xv = Value(x);
  Matrix* out = AllocValue(1, 1);
  fwd::ReduceSum(xv, out);
  return Emit(out, OpKind::kReduceSum, x);
}

Var Tape::QErrorLoss(Var pred, double target, double eps) {
  const Matrix& pv = Value(pred);
  NEURSC_CHECK(pv.rows() == 1 && pv.cols() == 1);
  const double c_hat = pv.at(0, 0);
  fwd::QErrorParts parts = fwd::QError(c_hat, target, eps);
  Matrix* out = AllocValue(1, 1);
  out->at(0, 0) = parts.loss;
  // d(loss)/d(pred) of whichever branch of the max is active.
  const double derivative =
      (parts.under >= parts.over)
          ? -parts.c / ((c_hat + eps) * (c_hat + eps))
          : 1.0 / parts.c;
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
        Matrix& bg = EnsureGrad(r.b);
        for (size_t row = 0; row < g.rows(); ++row) {
          for (size_t c = 0; c < g.cols(); ++c) bg.at(0, c) += g.at(row, c);
        }
      }
      break;
    case OpKind::kSub:
      if (Requires(r.a)) EnsureGrad(r.a).AddInPlace(g);
      if (Requires(r.b)) {
        float* bg = EnsureGrad(r.b).data();
        for (size_t i = 0; i < n; ++i) bg[i] += gd[i] * -1.0f;
      }
      break;
    case OpKind::kMul:
      if (Requires(r.a)) {
        const float* bv = V(r.b).data();
        float* ag = EnsureGrad(r.a).data();
        for (size_t i = 0; i < n; ++i) ag[i] += gd[i] * bv[i];
      }
      if (Requires(r.b)) {
        const float* av = V(r.a).data();
        float* bg = EnsureGrad(r.b).data();
        for (size_t i = 0; i < n; ++i) bg[i] += gd[i] * av[i];
      }
      break;
    case OpKind::kScale: {
      const float s = static_cast<float>(r.scalar);
      float* ag = EnsureGrad(r.a).data();
      for (size_t i = 0; i < n; ++i) ag[i] += gd[i] * s;
      break;
    }
    case OpKind::kRelu: {
      const float* x = V(r.a).data();
      float* ag = EnsureGrad(r.a).data();
      for (size_t i = 0; i < n; ++i) ag[i] += x[i] <= 0.0f ? 0.0f : gd[i];
      break;
    }
    case OpKind::kLeakyRelu: {
      const float s = static_cast<float>(r.scalar);
      const float* x = V(r.a).data();
      float* ag = EnsureGrad(r.a).data();
      for (size_t i = 0; i < n; ++i) {
        ag[i] += x[i] <= 0.0f ? gd[i] * s : gd[i];
      }
      break;
    }
    case OpKind::kSigmoid: {
      const float* y = V(r.out).data();
      float* ag = EnsureGrad(r.a).data();
      for (size_t i = 0; i < n; ++i) ag[i] += gd[i] * (y[i] * (1.0f - y[i]));
      break;
    }
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
      const float* y = V(r.out).data();
      float* ag = EnsureGrad(r.a).data();
      for (size_t i = 0; i < n; ++i) ag[i] += gd[i] * y[i];
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
        Matrix& ag = EnsureGrad(r.a);
        for (size_t row = 0; row < g.rows(); ++row) {
          for (size_t c = 0; c < acols; ++c) ag.at(row, c) += g.at(row, c);
        }
      }
      if (Requires(r.b)) {
        Matrix& bg = EnsureGrad(r.b);
        for (size_t row = 0; row < g.rows(); ++row) {
          for (size_t c = 0; c < bg.cols(); ++c) {
            bg.at(row, c) += g.at(row, acols + c);
          }
        }
      }
      break;
    }
    case OpKind::kConcatRows: {
      size_t offset = 0;
      for (uint32_t k = 0; k < r.index_count; ++k) {
        const int part = static_cast<int>(indices_[r.index_begin + k]);
        const Matrix& pv = V(part);
        if (Requires(part)) {
          Matrix& pg = EnsureGrad(part);
          for (size_t row = 0; row < pv.rows(); ++row) {
            for (size_t c = 0; c < pv.cols(); ++c) {
              pg.at(row, c) += g.at(offset + row, c);
            }
          }
        }
        offset += pv.rows();
      }
      break;
    }
    case OpKind::kGatherRows: {
      const uint32_t* rows = indices_.data() + r.index_begin;
      Matrix& xg = EnsureGrad(r.a);
      for (size_t i = 0; i < r.index_count; ++i) {
        for (size_t c = 0; c < g.cols(); ++c) xg.at(rows[i], c) += g.at(i, c);
      }
      break;
    }
    case OpKind::kScatterAddRows: {
      const uint32_t* targets = indices_.data() + r.index_begin;
      Matrix& xg = EnsureGrad(r.a);
      for (size_t i = 0; i < r.index_count; ++i) {
        for (size_t c = 0; c < g.cols(); ++c) {
          xg.at(i, c) += g.at(targets[i], c);
        }
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
        Matrix& xg = EnsureGrad(r.a);
        for (size_t row = 0; row < g.rows(); ++row) {
          const float wr = wv.at(row, 0);
          for (size_t c = 0; c < g.cols(); ++c) {
            xg.at(row, c) += g.at(row, c) * wr;
          }
        }
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
      Matrix& xg = EnsureGrad(r.a);
      for (size_t row = 0; row < xg.rows(); ++row) {
        for (size_t c = 0; c < xg.cols(); ++c) xg.at(row, c) += g.at(0, c);
      }
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

TapePool::Lease TapePool::Acquire() {
  std::unique_ptr<Tape> tape;
  {
    MutexLock lock(&mu_);
    if (!free_.empty()) {
      tape = std::move(free_.back());
      free_.pop_back();
    } else {
      tape.reset(new Tape());
      ++created_;
      NEURSC_GAUGE_SET("eval/pool_contexts", static_cast<double>(created_));
    }
  }
  tape->Reset();
  return Lease(this, std::move(tape));
}

void TapePool::Release(std::unique_ptr<Tape> tape) {
  MutexLock lock(&mu_);
  free_.push_back(std::move(tape));
}

size_t TapePool::created() const {
  MutexLock lock(&mu_);
  return created_;
}

size_t TapePool::idle() const {
  MutexLock lock(&mu_);
  return free_.size();
}

}  // namespace neursc
