#ifndef NEURSC_NN_SERIALIZE_H_
#define NEURSC_NN_SERIALIZE_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/param.h"

namespace neursc {

/// Text serialization of a parameter list (weights only, not gradients).
/// Format:
///   neursc-params v1 <count>
///   param <rows> <cols>
///   <rows*cols floats, row-major, whitespace separated>
///   ...
///
/// Values are written as C99 hexfloats ("%a"), which round-trip every
/// float bit-for-bit, so Save -> Load -> Save reproduces the file
/// byte-identically. Load also accepts the decimal floats older
/// checkpoints used. Non-finite values are rejected on both save and load
/// with InvalidArgument (a NaN/Inf weight is a corrupted model, not a
/// checkpoint to propagate).
///
/// Loading requires the destination parameter list to already have the
/// same shapes (i.e. the model must be constructed with the same
/// configuration); a mismatch is an InvalidArgument error. A rejected
/// load changes no parameter: values are committed only after the whole
/// checkpoint parsed.
Status SaveParameters(const std::vector<Parameter*>& params,
                      std::ostream& out);
Status SaveParametersToFile(const std::vector<Parameter*>& params,
                            const std::string& path);

Status LoadParameters(const std::vector<Parameter*>& params,
                      std::istream& in);
Status LoadParametersFromFile(const std::vector<Parameter*>& params,
                              const std::string& path);

}  // namespace neursc

#endif  // NEURSC_NN_SERIALIZE_H_
