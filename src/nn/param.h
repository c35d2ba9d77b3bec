#ifndef NEURSC_NN_PARAM_H_
#define NEURSC_NN_PARAM_H_

#include "nn/matrix.h"

namespace neursc {

/// A trainable tensor: value plus accumulated gradient. Owned by modules
/// (Linear, GIN, ...); the Tape only references parameters during a
/// pass.
struct Parameter {
  Matrix value;
  Matrix grad;

  Parameter() = default;
  explicit Parameter(Matrix v)
      : value(std::move(v)), grad(value.rows(), value.cols()) {}

  void ZeroGrad() { grad.Fill(0.0f); }
};

/// Lightweight handle to a node recorded by a Tape. Ids are tape-local
/// and per pass: a Var is only meaningful on the Tape that produced it,
/// until its next Reset().
struct Var {
  int id = -1;
  bool valid() const { return id >= 0; }
};

}  // namespace neursc

#endif  // NEURSC_NN_PARAM_H_
