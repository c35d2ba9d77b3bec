#ifndef NEURSC_NN_EVAL_H_
#define NEURSC_NN_EVAL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "nn/matrix.h"
#include "nn/param.h"

namespace neursc {

/// Forward-only execution context: the serving-path sibling of the
/// autograd Tape. It implements the same op vocabulary (dense algebra,
/// pointwise nonlinearities, scatter/gather/segment ops, reductions,
/// q-error) with the same arithmetic — each op calls the shared kernel in
/// nn/kernels.h — but records no backward closures and allocates no
/// gradient storage. Op outputs land in a per-context arena of reusable
/// Matrix slots: Reset() rewinds the arena without releasing capacity, so
/// steady-state inference over same-shaped inputs performs zero heap
/// allocation after the first (warm-up) pass. `arena_grows()` counts every
/// slot append or capacity increase (also exported as the `eval/arena_grows`
/// counter); the workspace-reuse regression test asserts it stays flat
/// across repeated passes.
///
/// Threading contract (docs/threading.md): an EvalContext is confined to
/// one thread between Acquire/Release — it is not internally synchronized,
/// and its arena is mutable state reused across passes, so it must never be
/// shared by concurrent forward passes. Independent contexts on different
/// threads are safe, including forwards that share Parameters (ops only
/// read Parameter::value). ParallelFor has no stable worker identity, so
/// parallel inference draws per-task contexts from an EvalContextPool.
class EvalContext {
 public:
  EvalContext() = default;
  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  /// Rewinds the node list and the arena cursor for the next forward pass.
  /// Slot capacity is kept, which is what makes repeated same-shaped
  /// passes allocation-free.
  void Reset();

  /// A leaf holding a copy of `value` in the arena. Copying (rather than
  /// borrowing) keeps temporaries safe: call sites pass freshly built
  /// matrices whose lifetime ends with the full expression.
  Var Constant(const Matrix& value);
  /// A leaf borrowing `param->value` (no copy; parameters are stable and
  /// read-only during inference). The parameter must outlive the pass.
  Var Leaf(Parameter* param);

  const Matrix& Value(Var v) const { return *nodes_[v.id]; }

  // --- Op vocabulary (see tape.h for per-op semantics) ---
  Var MatMul(Var a, Var b);
  Var Add(Var a, Var b);
  Var AddRowBroadcast(Var x, Var bias);
  Var Sub(Var a, Var b);
  Var Mul(Var a, Var b);
  Var Scale(Var a, float s);
  Var Relu(Var a);
  Var LeakyRelu(Var a, float negative_slope = 0.2f);
  Var Sigmoid(Var a);
  Var Tanh(Var a);
  Var Exp(Var a);
  Var Log(Var a);
  Var RowSoftmax(Var a);
  Var ConcatCols(Var a, Var b);
  Var ConcatRows(const std::vector<Var>& parts);
  Var GatherRows(Var x, const std::vector<uint32_t>& rows);
  Var ScatterAddRows(Var x, const std::vector<uint32_t>& targets,
                     size_t num_rows);
  Var SegmentSoftmax(Var logits, const std::vector<uint32_t>& segments,
                     size_t num_segments);
  Var ColBroadcastMul(Var x, Var w);
  Var SumRows(Var x);
  Var MeanRows(Var x);
  Var ReduceSum(Var x);
  Var QErrorLoss(Var pred, double target, double eps = 1e-9);

  /// Number of recorded nodes this pass (diagnostics/tests).
  size_t NumNodes() const { return nodes_.size(); }
  /// Arena growth events since construction: a new slot appended, or an
  /// existing slot's float capacity increased. Flat across passes once the
  /// context is warmed up on the largest shapes it will see.
  uint64_t arena_grows() const { return arena_grows_; }
  /// Bytes currently held by the arena (sum of slot capacities).
  size_t arena_bytes() const;
  /// Number of arena slots ever allocated.
  size_t num_slots() const { return slots_.size(); }

 private:
  /// Next arena slot, reshaped (zero-filled) to rows x cols. Growth is
  /// counted at most once per call.
  Matrix* AllocSlot(size_t rows, size_t cols);
  Var PushNode(const Matrix* value);

  /// Node values: arena slots or borrowed parameter values. A deque keeps
  /// slot addresses stable while the arena grows.
  std::vector<const Matrix*> nodes_;
  std::deque<Matrix> slots_;
  size_t slots_used_ = 0;
  uint64_t arena_grows_ = 0;
  /// SegmentSoftmax scratch, reused across passes like the slots.
  std::vector<float> seg_max_;
  std::vector<double> seg_sum_;
};

/// Hands out EvalContexts to parallel inference tasks. ParallelFor
/// distributes indices by an atomic counter with no per-worker identity, so
/// workspaces cannot be indexed by thread; instead each task leases a
/// context for the duration of one forward pass and returns it. The pool
/// grows to the peak concurrency ever observed (gauge `eval/pool_contexts`)
/// and reuses those contexts forever after, preserving their warmed-up
/// arenas. Acquire/Release are mutex-protected; the leased context itself
/// is exclusively owned until the Lease dies.
class EvalContextPool {
 public:
  class Lease {
   public:
    Lease(EvalContextPool* pool, std::unique_ptr<EvalContext> ctx)
        : pool_(pool), ctx_(std::move(ctx)) {}
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (ctx_ != nullptr) pool_->Release(std::move(ctx_));
    }

    EvalContext* get() const { return ctx_.get(); }
    EvalContext* operator->() const { return ctx_.get(); }
    EvalContext& operator*() const { return *ctx_; }

   private:
    EvalContextPool* pool_;
    std::unique_ptr<EvalContext> ctx_;
  };

  EvalContextPool() = default;
  EvalContextPool(const EvalContextPool&) = delete;
  EvalContextPool& operator=(const EvalContextPool&) = delete;

  /// Leases a Reset() context: a pooled one when available, else a fresh
  /// one. The lease returns it on destruction.
  Lease Acquire() NEURSC_EXCLUDES(mu_);

  /// Contexts created over the pool's lifetime (== peak concurrency).
  size_t created() const NEURSC_EXCLUDES(mu_);
  /// Contexts currently parked in the pool.
  size_t idle() const NEURSC_EXCLUDES(mu_);

 private:
  void Release(std::unique_ptr<EvalContext> ctx) NEURSC_EXCLUDES(mu_);

  /// Guards the free list and the creation count; a leased context itself
  /// is unsynchronized by contract (exclusively owned until the Lease
  /// dies).
  mutable Mutex mu_;
  std::vector<std::unique_ptr<EvalContext>> free_ NEURSC_GUARDED_BY(mu_);
  size_t created_ NEURSC_GUARDED_BY(mu_) = 0;
};

}  // namespace neursc

#endif  // NEURSC_NN_EVAL_H_
