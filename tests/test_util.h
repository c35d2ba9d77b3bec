#ifndef NEURSC_TESTS_TEST_UTIL_H_
#define NEURSC_TESTS_TEST_UTIL_H_

#include <functional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "nn/tape.h"

namespace neursc {
namespace testing_util {

/// Scoped NEURSC_THREADS override; restores the previous value, or unsets
/// the variable, on exit, so tests do not leak thread settings into each
/// other.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(size_t n);
  ~ThreadsGuard();
  ThreadsGuard(const ThreadsGuard&) = delete;
  ThreadsGuard& operator=(const ThreadsGuard&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

/// Builds a graph from labels + edge list; dies on invalid input.
Graph MakeGraph(const std::vector<Label>& labels,
                const std::vector<std::pair<VertexId, VertexId>>& edges);

/// `g` with vertex v's label replaced by `label`, e.g. an unmatchable copy
/// of a generated query.
Graph WithLabel(const Graph& g, VertexId v, Label label);

/// Expects `got` and `want` to agree on every accessor, derived arrays
/// included: sizes, labels, neighbours, neighbour labels, label
/// signatures, label groups, max degree and fingerprint (Graph::operator== compares only the
/// defining arrays). Also checks `got`'s derived arrays against their
/// definitions, since `want` may be built by the same code.
void ExpectSameGraph(const Graph& got, const Graph& want,
                     const std::string& context);

/// Exact subgraph isomorphism count by brute force over all injective
/// mappings (only for tiny graphs; used to validate the real enumerator).
uint64_t BruteForceCount(const Graph& query, const Graph& data);

/// Finite-difference gradient check: `loss` recomputes the scalar loss from
/// the current parameter values. Checks every coordinate of every
/// parameter against the analytic gradient stored in param->grad.
/// Returns the max relative error.
double MaxGradCheckError(const std::vector<Parameter*>& params,
                         const std::function<double()>& loss,
                         float step = 1e-3f);

/// The raw values of every weight in `params`, for WeightsUnchanged.
std::vector<std::vector<float>> SnapshotWeights(
    const std::vector<Parameter*>& params);

/// True iff every weight of `params` is bit-identical to `before`.
bool WeightsUnchanged(const std::vector<Parameter*>& params,
                      const std::vector<std::vector<float>>& before);

/// Whole file as a string; dies if the file cannot be read.
std::string ReadFileToString(const std::string& path);

/// Writes `contents` to `path` as a new file, removing any file already
/// there; dies if the file cannot be written. Truncating and rewriting one
/// path for each input blocks for tens of ms per write on some
/// filesystems, where a fresh file does not.
void WriteFreshFile(const std::string& path, const std::string& contents);

/// Structural JSON well-formedness: non-empty, braces/brackets balance
/// (string- and escape-aware), and the text is a single object or array.
/// Not a full parser, but catches truncation and quoting bugs.
bool IsBalancedJson(const std::string& text);

}  // namespace testing_util
}  // namespace neursc

#endif  // NEURSC_TESTS_TEST_UTIL_H_
