#ifndef NEURSC_BASELINES_SAMPLING_H_
#define NEURSC_BASELINES_SAMPLING_H_

#include <memory>
#include <vector>

#include "baselines/estimator.h"
#include "common/rng.h"

namespace neursc {

/// Correlated Sampling (Vengerov et al.), G-CARE adaptation: data vertices
/// are included in a sample by hashing (the same sample serves every
/// query — the "correlated" part), the query is counted exactly on the
/// induced sample graph, and the count is scaled by p^-|V(q)|. Selective
/// queries frequently see zero sampled matches ("sampling failure"),
/// producing the underestimates Sec. 6.2 describes.
class CorrelatedSamplingEstimator : public CardinalityEstimator {
 public:
  struct Options {
    double sample_probability = 0.2;
    double time_limit_seconds = 5.0;
    uint64_t seed = 17;
  };

  CorrelatedSamplingEstimator(const Graph& data, Options options);
  explicit CorrelatedSamplingEstimator(const Graph& data)
      : CorrelatedSamplingEstimator(data, Options()) {}

  std::string Name() const override { return "CS"; }
  Result<double> EstimateCount(const Graph& query) override;

 private:
  Options options_;
  Graph sample_;
};

/// WanderJoin (Li et al.): random walks over an edge order of the query.
/// Each walk samples the first data edge uniformly among label-matching
/// edges, then extends one query edge at a time by sampling a
/// label-matching neighbor uniformly; non-walk constraints (injectivity,
/// closing edges) are verified afterwards. The estimate is the average of
/// the walks' inverse sampling probabilities.
class WanderJoinEstimator : public CardinalityEstimator {
 public:
  struct Options {
    size_t num_walks = 200;
    double time_limit_seconds = 5.0;
    uint64_t seed = 23;
  };

  WanderJoinEstimator(const Graph& data, Options options);
  explicit WanderJoinEstimator(const Graph& data)
      : WanderJoinEstimator(data, Options()) {}

  std::string Name() const override { return "WJ"; }
  Result<double> EstimateCount(const Graph& query) override;

 private:
  const Graph& data_;
  Options options_;
  Rng rng_;
};

/// JSUB (Zhao et al., "random sampling over joins revisited"), G-CARE
/// adaptation: like WanderJoin but every extension step samples uniformly
/// from the *fully validated* extension set (label + adjacency to all
/// mapped neighbors + injectivity), i.e. the sampling distribution is
/// guided by the tighter bound. Lower failure rate and variance than WJ at
/// higher per-walk cost.
class JsubEstimator : public CardinalityEstimator {
 public:
  struct Options {
    size_t num_walks = 200;
    double time_limit_seconds = 5.0;
    uint64_t seed = 29;
  };

  JsubEstimator(const Graph& data, Options options);
  explicit JsubEstimator(const Graph& data)
      : JsubEstimator(data, Options()) {}

  std::string Name() const override { return "JSUB"; }
  Result<double> EstimateCount(const Graph& query) override;

 private:
  const Graph& data_;
  Options options_;
  Rng rng_;
};

/// Shared helper: connectivity-aware vertex order starting at `start`
/// (each vertex after the first has an already-ordered query neighbor; a
/// disconnected query continues at its lowest unplaced vertex).
std::vector<VertexId> ConnectedQueryOrder(const Graph& query,
                                          VertexId start);

/// The lowest-numbered vertex of maximum degree (the most constrained
/// one), where WJ and JSUB start their orders.
VertexId MaxDegreeVertex(const Graph& query);

}  // namespace neursc

#endif  // NEURSC_BASELINES_SAMPLING_H_
