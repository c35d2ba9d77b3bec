#ifndef NEURSC_NN_EVAL_H_
#define NEURSC_NN_EVAL_H_

#include "nn/tape.h"

namespace neursc {

// Kept only because perfbench/perfbench.cc names EvalContext.
using EvalContext = Tape;

}  // namespace neursc

#endif  // NEURSC_NN_EVAL_H_
