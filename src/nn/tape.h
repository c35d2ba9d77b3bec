#ifndef NEURSC_NN_TAPE_H_
#define NEURSC_NN_TAPE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "nn/matrix.h"
#include "nn/param.h"

namespace neursc {

/// Tape-local buffer of leaf gradients. When installed on a Tape (see
/// Tape::set_gradient_sink), Backward() accumulates each Leaf's gradient
/// into the sink's per-parameter buffer instead of writing
/// Parameter::grad directly. Backward passes on different threads can
/// therefore share Parameters as long as each tape has its own sink; the
/// buffers are then reduced into Parameter::grad serially, in a
/// caller-chosen (e.g. example-index) order, which keeps the accumulated
/// gradient bit-identical at every thread count.
///
/// A sink is confined to one thread while its tape runs Backward();
/// ReduceIntoParameters() must be called serially (it mutates the shared
/// Parameter::grad matrices).
class GradientSink {
 public:
  /// Adds `delta` into the buffer for `param`, creating it zeroed on
  /// first touch. Called by Tape::Backward; also usable directly in
  /// tests.
  void Accumulate(Parameter* param, const Matrix& delta);

  /// Adds every buffered gradient into its Parameter::grad. Buffers for
  /// distinct parameters are independent, so the map's iteration order
  /// does not affect the result; what matters for determinism is the
  /// order in which *sinks* are reduced, which the caller fixes.
  void ReduceIntoParameters() const;

  bool empty() const { return buffers_.empty(); }
  size_t size() const { return buffers_.size(); }
  void Clear() { buffers_.clear(); }

 private:
  std::unordered_map<Parameter*, Matrix> buffers_;
};

/// The execution engine: eager evaluation with optional reverse-mode
/// automatic differentiation. Training, validation and inference all run
/// on it (docs/execution.md).
///
/// Each op takes its output from a reusable arena of Matrix slots, computes
/// it with its one kernel in nn/kernels.h, and — when an operand needs a
/// gradient — appends a typed op record: the op kind, the operand node
/// ids, a scalar, and a span of the op's index list (copied into a reused
/// per-tape buffer). Backward(loss) walks the records in reverse and
/// accumulates d(loss)/d(node) into gradient slots drawn from a second
/// arena, then into Parameter::grad (or the installed GradientSink) for
/// every node created with Leaf(). Backward may run once per pass.
/// Reset() rewinds nodes, records, index buffer, gradient slots and the
/// backward flag for the next pass, keeping every capacity, so repeated
/// same-shaped passes perform no arena allocation after the first.
/// `arena_grows()` counts every value or gradient slot append or capacity
/// increase (also exported as the `eval/arena_grows` counter).
///
/// The op vocabulary is the minimal set needed by GNNs: dense algebra,
/// pointwise nonlinearities, and segment (scatter/gather) ops for message
/// passing and attention.
///
/// Threading contract (docs/threading.md): a Tape is confined to one
/// thread — it is not internally synchronized, and all its mutable state
/// (nodes, records, arenas, the backward flag, the gradient sink pointer)
/// lives in the Tape instance; there are no global or thread-local caches
/// in the nn layer beyond the GEMM packing buffer. Independent tapes on
/// different threads are therefore safe to run concurrently, *including*
/// passes that share Parameters: ops only read Parameter::value.
/// Backward() on a shared Parameter set is also safe across threads
/// **when each tape has its own GradientSink installed**: leaf gradients
/// then land in the tape-local sink, and the sinks are reduced into
/// Parameter::grad serially afterwards, in example-index order, so the
/// result is bit-identical at every thread count — this is how
/// data-parallel training works. Without a sink, Backward() accumulates
/// into Parameter::grad directly and gradient work for one Parameter set
/// must stay on one thread at a time (the serial critic updates use this
/// mode). Mutating a shared Parameter (optimizer steps, weight clamping,
/// LoadModel) while another thread runs a pass over it is a data race.
/// Because the arenas are reused, a tape must not be handed to another
/// thread until the previous pass's results have been consumed; parallel
/// callers lease tapes from a TapePool, which enforces exclusive leases.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Rewinds the tape for the next pass and uninstalls the gradient sink.
  /// Capacity is kept, which is what makes repeated same-shaped passes
  /// allocation-free.
  void Reset();

  /// A leaf with no gradient tracking, holding a copy of `value` in the
  /// arena (so temporaries are safe to pass).
  Var Constant(const Matrix& value);
  /// A leaf bound to a trainable parameter. It borrows `param->value`
  /// without copying; Backward() accumulates into `param->grad`. The
  /// parameter must outlive the pass and keep its value until then.
  Var Leaf(Parameter* param);

  /// A node's value. The reference stays valid until Reset().
  const Matrix& Value(Var v) const { return *nodes_[v.id].value; }

  // --- Dense algebra ---
  Var MatMul(Var a, Var b);
  /// Elementwise sum; shapes must match.
  Var Add(Var a, Var b);
  /// x (n x d) plus bias (1 x d) broadcast over rows.
  Var AddRowBroadcast(Var x, Var bias);
  Var Sub(Var a, Var b);
  /// Elementwise product; shapes must match.
  Var Mul(Var a, Var b);
  Var Scale(Var a, float s);

  // --- Pointwise nonlinearities ---
  Var Relu(Var a);
  Var LeakyRelu(Var a, float negative_slope = 0.2f);
  Var Sigmoid(Var a);
  Var Tanh(Var a);
  /// exp() with input clamped to [-30, 30] for numeric safety; used to map
  /// the predictor's log-scale output to a positive count. The gradient
  /// uses the clamped output (straight-through at the clamp).
  Var Exp(Var a);
  /// Natural log with the input floored at 1e-12.
  Var Log(Var a);
  /// Row-wise softmax (n x d): each row sums to 1. Used to interpret
  /// representations as distributions for the KL/JS discriminator variants.
  Var RowSoftmax(Var a);

  // --- Structure ops ---
  /// Horizontal concatenation [a | b]; row counts must match.
  Var ConcatCols(Var a, Var b);
  /// Vertical stacking of the given vars (column counts must match).
  Var ConcatRows(const std::vector<Var>& parts);
  /// out[i] = x[rows[i]]; duplicates allowed (gradient accumulates).
  Var GatherRows(Var x, const std::vector<uint32_t>& rows);
  /// out (num_rows x d) with out[targets[i]] += x[i].
  Var ScatterAddRows(Var x, const std::vector<uint32_t>& targets,
                     size_t num_rows);
  /// Softmax of a column vector (m x 1) within each segment:
  /// out[i] = exp(x[i]) / sum_{j: seg[j]==seg[i]} exp(x[j]), computed with
  /// the per-segment max subtracted. Empty segments are fine.
  Var SegmentSoftmax(Var logits, const std::vector<uint32_t>& segments,
                     size_t num_segments);
  /// Multiplies row i of x (m x d) by scalar w[i] (w is m x 1).
  Var ColBroadcastMul(Var x, Var w);
  /// Column-wise sum: (n x d) -> (1 x d). Sum-pooling readout.
  Var SumRows(Var x);
  /// Mean over rows: (n x d) -> (1 x d).
  Var MeanRows(Var x);
  /// Sum of all entries -> 1x1.
  Var ReduceSum(Var x);

  // --- Losses ---
  /// q-error training loss (Eq. 10): max(target / (pred + eps),
  /// pred / max(target, 1)). `pred` must be 1x1 and positive.
  Var QErrorLoss(Var pred, double target, double eps = 1e-9);

  /// Runs reverse-mode accumulation from `loss` (must be 1x1) with seed 1.
  /// May be called once per pass. Leaf gradients go to Parameter::grad, or
  /// to the installed gradient sink when one is set.
  void Backward(Var loss);

  /// Installs a tape-local gradient sink: Backward() accumulates leaf
  /// gradients into `sink` instead of Parameter::grad. Pass nullptr to
  /// restore direct accumulation. The sink must outlive the Backward()
  /// call. Must be set before Backward() runs to take effect.
  void set_gradient_sink(GradientSink* sink) { gradient_sink_ = sink; }

  /// Number of recorded nodes this pass (diagnostics/tests).
  size_t NumNodes() const { return nodes_.size(); }
  /// Arena growth events since construction: a value or gradient slot
  /// appended, or a slot's float capacity increased. Flat across passes
  /// once the tape is warmed up on the largest shapes it will see.
  uint64_t arena_grows() const { return arena_grows_; }
  /// Bytes currently held by the value and gradient slots.
  size_t arena_bytes() const;
  /// Number of value slots ever allocated.
  size_t num_slots() const { return slots_.size(); }

 private:
  enum class OpKind : uint8_t {
    kLeaf,
    kMatMul,
    kAdd,
    kAddRowBroadcast,
    kSub,
    kMul,
    kScale,
    kRelu,
    kLeakyRelu,
    kSigmoid,
    kTanh,
    kExp,
    kLog,
    kRowSoftmax,
    kConcatCols,
    kConcatRows,
    kGatherRows,
    kScatterAddRows,
    kSegmentSoftmax,
    kColBroadcastMul,
    kSumRows,
    kReduceSum,
    kQErrorLoss,
  };

  struct Node {
    /// An arena slot, or the borrowed value of a Leaf's parameter.
    const Matrix* value = nullptr;
    /// Gradient slot, taken from the gradient arena on first contribution.
    Matrix* grad = nullptr;
    Parameter* param = nullptr;
    bool requires_grad = false;
  };

  /// What Backward needs of one op whose output requires a gradient.
  struct Record {
    OpKind kind = OpKind::kLeaf;
    int out = -1;
    int a = -1;
    int b = -1;
    /// Scale factor, LeakyRelu slope, SegmentSoftmax segment count, or
    /// the QErrorLoss derivative.
    double scalar = 0.0;
    /// The op's index list (rows, targets, segments, ConcatRows part
    /// ids): indices_[index_begin, index_begin + index_count).
    uint32_t index_begin = 0;
    uint32_t index_count = 0;
  };

  /// Next slot of `arena` (cursor `used`), reshaped (zero-filled) to
  /// rows x cols. Growth is counted at most once per call.
  Matrix* AllocSlot(std::deque<Matrix>* arena, size_t* used, size_t rows,
                    size_t cols);
  Matrix* AllocValue(size_t rows, size_t cols) {
    return AllocSlot(&slots_, &slots_used_, rows, cols);
  }
  /// Appends the node for `value`. When `a` or `b` requires a gradient,
  /// so does the node, and its record is appended with `indices` copied
  /// into the index buffer.
  Var Emit(const Matrix* value, OpKind kind, Var a, Var b = Var{},
           double scalar = 0.0, std::span<const uint32_t> indices = {});
  Record& AppendRecord(OpKind kind, int out);
  bool Requires(int id) const { return nodes_[id].requires_grad; }
  const Matrix& V(int id) const { return *nodes_[id].value; }
  Matrix& EnsureGrad(int id);
  /// Runs one record's backward step; `g` is the gradient of its output.
  void BackwardStep(const Record& r, const Matrix& g);

  std::vector<Node> nodes_;
  std::vector<Record> records_;
  std::vector<uint32_t> indices_;
  /// Value and gradient arenas. Deques keep slot addresses stable while
  /// an arena grows, so Value() references survive later ops.
  std::deque<Matrix> slots_;
  size_t slots_used_ = 0;
  std::deque<Matrix> grad_slots_;
  size_t grad_slots_used_ = 0;
  uint64_t arena_grows_ = 0;
  bool backward_done_ = false;
  GradientSink* gradient_sink_ = nullptr;
  /// Op scratch, reused across passes like the slots.
  Matrix scratch_;
  std::vector<const Matrix*> concat_parts_;
  std::vector<float> seg_max_;
  std::vector<double> seg_sum_;
};

/// Hands out tapes to parallel tasks. ParallelFor distributes indices by
/// an atomic counter with no per-worker identity, so workspaces cannot be
/// indexed by thread; instead each task leases a tape for the duration of
/// one pass and returns it. The pool grows to the peak concurrency ever
/// observed (gauge `eval/pool_contexts`) and reuses those tapes forever
/// after, preserving their warmed-up arenas. Acquire/Release are
/// mutex-protected; the leased tape itself is exclusively owned until the
/// Lease dies.
class TapePool {
 public:
  class Lease {
   public:
    Lease(TapePool* pool, std::unique_ptr<Tape> tape)
        : pool_(pool), tape_(std::move(tape)) {}
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (tape_ != nullptr) pool_->Release(std::move(tape_));
    }

    Tape* get() const { return tape_.get(); }
    Tape* operator->() const { return tape_.get(); }
    Tape& operator*() const { return *tape_; }

   private:
    TapePool* pool_;
    std::unique_ptr<Tape> tape_;
  };

  TapePool() = default;
  TapePool(const TapePool&) = delete;
  TapePool& operator=(const TapePool&) = delete;

  /// Leases a Reset() tape: a pooled one when available, else a fresh one.
  /// The lease returns it on destruction.
  Lease Acquire() NEURSC_EXCLUDES(mu_);

  /// Tapes created over the pool's lifetime (== peak concurrency).
  size_t created() const NEURSC_EXCLUDES(mu_);
  /// Tapes currently parked in the pool.
  size_t idle() const NEURSC_EXCLUDES(mu_);

 private:
  void Release(std::unique_ptr<Tape> tape) NEURSC_EXCLUDES(mu_);

  /// Guards the free list and the creation count; a leased tape itself is
  /// unsynchronized by contract (exclusively owned until the Lease dies).
  mutable Mutex mu_;
  std::vector<std::unique_ptr<Tape>> free_ NEURSC_GUARDED_BY(mu_);
  size_t created_ NEURSC_GUARDED_BY(mu_) = 0;
};

}  // namespace neursc

#endif  // NEURSC_NN_TAPE_H_
