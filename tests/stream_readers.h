#ifndef NEURSC_TESTS_STREAM_READERS_H_
#define NEURSC_TESTS_STREAM_READERS_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "nn/param.h"

namespace neursc {
namespace oracle {

/// The checkpoint and graph readers as they were before they parsed an
/// in-memory buffer: one `operator>>` or `istream::read` per value. The
/// tests' oracle for nn/serialize.h and graph/graph_io.h, which must keep
/// these readers' outcome (status code and message, weights, graph) on
/// every input; nothing outside the tests uses them.
Status LoadParameters(const std::vector<Parameter*>& params,
                      std::istream& in);
Result<Graph> ReadGraphFromStream(std::istream& in);
Result<Graph> ReadGraphBinary(const std::string& path);

/// Loads `input` into `params` with neursc::LoadParameters and into `twin`
/// (the same shapes and weights) with the oracle, and expects the same
/// status code and message and bit-identical weights afterwards. Returns
/// the library's status.
Status ExpectLoadMatchesOracle(const std::vector<Parameter*>& params,
                               const std::vector<Parameter*>& twin,
                               const std::string& input,
                               const std::string& context);

/// Reads `input` with neursc::ReadGraphFromString and with the oracle, and
/// expects the same status code and message, or the same graph. Returns
/// the library's result.
Result<Graph> ExpectTextReadMatchesOracle(const std::string& input,
                                          const std::string& context);

/// The same for the binary file at `path` and neursc::ReadGraphBinary.
Result<Graph> ExpectBinaryReadMatchesOracle(const std::string& path,
                                            const std::string& context);

}  // namespace oracle
}  // namespace neursc

#endif  // NEURSC_TESTS_STREAM_READERS_H_
