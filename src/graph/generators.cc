#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <utility>

#include "common/logging.h"

namespace neursc {

namespace {

/// Assigns Zipf-skewed labels over [0, num_labels). Every label in the
/// range is used at least once when num_vertices >= num_labels so that the
/// generated graph reports the intended |L|.
std::vector<Label> DrawLabels(size_t num_vertices, size_t num_labels,
                              double skew, Rng* rng) {
  std::vector<Label> labels(num_vertices);
  for (size_t v = 0; v < num_vertices; ++v) {
    if (v < num_labels) {
      labels[v] = static_cast<Label>(v);
    } else if (skew <= 0.0) {
      labels[v] = static_cast<Label>(rng->UniformIndex(num_labels));
    } else {
      labels[v] = static_cast<Label>(
          rng->Zipf(static_cast<int64_t>(num_labels), skew) - 1);
    }
  }
  rng->Shuffle(&labels);
  return labels;
}

/// Samples `num_edges` distinct undirected edges with both endpoints drawn
/// proportionally to `weights` (Chung-Lu style). Falls back to uniform
/// resampling when rejections pile up on tiny graphs.
std::vector<std::pair<VertexId, VertexId>> SampleWeightedEdges(
    const std::vector<double>& weights, size_t num_edges, Rng* rng) {
  const size_t n = weights.size();
  // Alias-free endpoint sampling via cumulative weights + binary search.
  std::vector<double> cumulative(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += weights[i];
    cumulative[i] = total;
  }
  auto sample_endpoint = [&]() -> VertexId {
    double r = rng->Uniform01() * total;
    auto it = std::lower_bound(cumulative.begin(), cumulative.end(), r);
    size_t idx = static_cast<size_t>(it - cumulative.begin());
    return static_cast<VertexId>(std::min(idx, n - 1));
  };

  std::set<std::pair<VertexId, VertexId>> edges;
  size_t attempts = 0;
  const size_t max_attempts = num_edges * 50 + 1000;
  while (edges.size() < num_edges && attempts < max_attempts) {
    ++attempts;
    VertexId u = sample_endpoint();
    VertexId v = sample_endpoint();
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    edges.emplace(u, v);
  }
  return {edges.begin(), edges.end()};
}

/// Ensures connectivity by linking every non-largest component to the
/// largest one through a random edge, then returns the rebuilt graph.
Result<Graph> Connectify(Graph g, Rng* rng) {
  auto components = ConnectedComponents(g);
  if (components.size() <= 1) return g;
  size_t largest = 0;
  for (size_t i = 1; i < components.size(); ++i) {
    if (components[i].size() > components[largest].size()) largest = i;
  }
  GraphBuilder builder;
  builder.Reserve(g.NumVertices(), g.NumEdges() + components.size());
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    builder.AddVertex(g.GetLabel(static_cast<VertexId>(v)));
  }
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(static_cast<VertexId>(v))) {
      if (v < w) {
        NEURSC_RETURN_IF_ERROR(builder.AddEdge(static_cast<VertexId>(v), w));
      }
    }
  }
  for (size_t i = 0; i < components.size(); ++i) {
    if (i == largest) continue;
    VertexId a = components[i][rng->UniformIndex(components[i].size())];
    VertexId b =
        components[largest][rng->UniformIndex(components[largest].size())];
    NEURSC_RETURN_IF_ERROR(builder.AddEdge(a, b));
  }
  return builder.Build();
}

double EnvScaleMultiplier() {
  const char* env = std::getenv("NEURSC_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

}  // namespace

namespace {

/// Probability that an edge stays inside its community.
constexpr double kIntraCommunityFraction = 0.85;
/// Fraction of a community's vertices drawn from its "home" label block
/// (the rest are global Zipf draws).
constexpr double kLabelLocality = 0.7;

/// Community-structured variant: vertices are partitioned into
/// communities, most edges stay intra-community, and each community draws
/// most of its labels from a "home" block of the label space.
Result<Graph> GenerateCommunityGraph(const GeneratorConfig& config,
                                     Rng* rng) {
  const size_t n = config.num_vertices;
  const size_t communities = config.num_communities;

  // Community assignment (contiguous blocks of roughly equal size keep the
  // construction deterministic and simple).
  std::vector<uint32_t> community(n);
  std::vector<std::vector<VertexId>> members(communities);
  for (size_t v = 0; v < n; ++v) {
    uint32_t c = static_cast<uint32_t>(v * communities / n);
    community[v] = c;
    members[c].push_back(static_cast<VertexId>(v));
  }

  // Power-law weights, plus per-community cumulative tables for fast
  // weighted sampling within a community.
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    double u = std::max(rng->Uniform01(), 1e-12);
    double w = std::pow(u, -1.0 / (config.degree_exponent - 1.0));
    weights[i] = std::min(w, std::sqrt(static_cast<double>(n)));
  }
  std::vector<std::vector<double>> community_cumulative(communities);
  std::vector<double> community_total(communities, 0.0);
  for (uint32_t c = 0; c < communities; ++c) {
    community_cumulative[c].reserve(members[c].size());
    for (VertexId v : members[c]) {
      community_total[c] += weights[v];
      community_cumulative[c].push_back(community_total[c]);
    }
  }
  double global_total = 0.0;
  std::vector<double> global_cumulative(n);
  for (size_t v = 0; v < n; ++v) {
    global_total += weights[v];
    global_cumulative[v] = global_total;
  }
  auto sample_in_community = [&](uint32_t c) -> VertexId {
    const auto& cumulative = community_cumulative[c];
    double r = rng->Uniform01() * community_total[c];
    auto it = std::lower_bound(cumulative.begin(), cumulative.end(), r);
    size_t idx = static_cast<size_t>(it - cumulative.begin());
    return members[c][std::min(idx, members[c].size() - 1)];
  };
  auto sample_global = [&]() -> VertexId {
    double r = rng->Uniform01() * global_total;
    auto it =
        std::lower_bound(global_cumulative.begin(), global_cumulative.end(), r);
    size_t idx = static_cast<size_t>(it - global_cumulative.begin());
    return static_cast<VertexId>(std::min(idx, n - 1));
  };

  std::set<std::pair<VertexId, VertexId>> edges;
  size_t attempts = 0;
  const size_t max_attempts = config.num_edges * 50 + 1000;
  while (edges.size() < config.num_edges && attempts < max_attempts) {
    ++attempts;
    VertexId a = sample_global();
    VertexId b = rng->Bernoulli(kIntraCommunityFraction)
                     ? sample_in_community(community[a])
                     : sample_global();
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    edges.emplace(a, b);
  }

  // Labels: each community owns a contiguous "home" block of the label
  // space; a vertex draws from its home block with probability
  // kLabelLocality, globally (Zipf) otherwise. Every label is used at
  // least once so |L| matches the configuration.
  std::vector<Label> labels(n);
  const size_t num_labels = config.num_labels;
  for (size_t v = 0; v < n; ++v) {
    if (v < num_labels) {
      labels[v] = static_cast<Label>(v);
      continue;
    }
    uint32_t c = community[v];
    size_t block_lo = c * num_labels / communities;
    size_t block_hi =
        std::max<size_t>((c + 1) * num_labels / communities, block_lo + 1);
    if (rng->Bernoulli(kLabelLocality)) {
      labels[v] = static_cast<Label>(
          block_lo + rng->UniformIndex(block_hi - block_lo));
    } else if (config.label_skew > 0.0) {
      labels[v] = static_cast<Label>(
          rng->Zipf(static_cast<int64_t>(num_labels), config.label_skew) -
          1);
    } else {
      labels[v] = static_cast<Label>(rng->UniformIndex(num_labels));
    }
  }

  GraphBuilder builder;
  builder.Reserve(n, edges.size());
  for (Label l : labels) builder.AddVertex(l);
  for (const auto& [a, b] : edges) {
    NEURSC_RETURN_IF_ERROR(builder.AddEdge(a, b));
  }
  auto built = builder.Build();
  if (!built.ok()) return built.status();
  return Connectify(std::move(built).value(), rng);
}

}  // namespace

Result<Graph> GeneratePowerLawGraph(const GeneratorConfig& config) {
  if (config.num_vertices < 2) {
    return Status::InvalidArgument("need at least 2 vertices");
  }
  if (config.num_labels == 0) {
    return Status::InvalidArgument("need at least 1 label");
  }
  Rng rng(config.seed);
  const size_t n = config.num_vertices;

  if (config.num_communities > 1) {
    return GenerateCommunityGraph(config, &rng);
  }

  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    // Power-law weights w ~ U^{-1/(gamma-1)}; clamp the tail so a single hub
    // cannot absorb the whole edge budget.
    double u = std::max(rng.Uniform01(), 1e-12);
    double w = std::pow(u, -1.0 / (config.degree_exponent - 1.0));
    weights[i] = std::min(w, std::sqrt(static_cast<double>(n)));
  }

  auto edge_list = SampleWeightedEdges(weights, config.num_edges, &rng);

  GraphBuilder builder;
  builder.Reserve(n, edge_list.size());
  auto labels =
      DrawLabels(n, config.num_labels, config.label_skew, &rng);
  for (Label l : labels) builder.AddVertex(l);
  for (const auto& [u, v] : edge_list) {
    NEURSC_RETURN_IF_ERROR(builder.AddEdge(u, v));
  }
  auto built = builder.Build();
  if (!built.ok()) return built.status();
  return Connectify(std::move(built).value(), &rng);
}

Result<Graph> GenerateErdosRenyiGraph(size_t num_vertices, size_t num_edges,
                                      size_t num_labels, uint64_t seed) {
  GeneratorConfig config;
  config.num_vertices = num_vertices;
  config.num_edges = num_edges;
  config.num_labels = num_labels;
  config.label_skew = 0.0;
  config.seed = seed;
  if (num_vertices < 2) {
    return Status::InvalidArgument("need at least 2 vertices");
  }
  Rng rng(seed);
  std::vector<double> weights(num_vertices, 1.0);
  auto edge_list = SampleWeightedEdges(weights, num_edges, &rng);
  GraphBuilder builder;
  builder.Reserve(num_vertices, edge_list.size());
  auto labels = DrawLabels(num_vertices, num_labels, 0.0, &rng);
  for (Label l : labels) builder.AddVertex(l);
  for (const auto& [u, v] : edge_list) {
    NEURSC_RETURN_IF_ERROR(builder.AddEdge(u, v));
  }
  auto built = builder.Build();
  if (!built.ok()) return built.status();
  return Connectify(std::move(built).value(), &rng);
}

const std::vector<DatasetProfile>& AllDatasetProfiles() {
  // Full-size statistics from Table 2; query sizes & workload sizes from
  // Table 3. default_scale keeps the synthetic stand-in small enough for
  // in-harness exact ground truth (see DESIGN.md substitutions).
  static const std::vector<DatasetProfile>& kProfiles =
      *new std::vector<DatasetProfile>{
          {"Yeast", 3112, 12519, 71, 8.0, 1.0, {4, 8, 16, 24, 32}, 60},
          {"Human", 4674, 86282, 44, 36.9, 0.35, {4, 8, 16}, 40},
          {"HPRD", 9460, 34998, 307, 7.4, 0.5, {4, 8, 16}, 40},
          {"Wordnet", 76853, 120399, 5, 3.1, 0.05, {4, 8}, 40},
          {"DBLP", 317080, 1049866, 15, 6.6, 0.01, {4, 8}, 40},
          {"EU2005", 862664, 16138468, 40, 37.4, 0.003, {4, 8}, 30},
          {"Youtube", 1134890, 2987624, 25, 5.3, 0.004, {4, 8, 16}, 40},
      };
  return kProfiles;
}

Result<DatasetProfile> FindDatasetProfile(const std::string& name) {
  for (const auto& p : AllDatasetProfiles()) {
    if (p.name == name) return p;
  }
  return Status::NotFound("unknown dataset profile '" + name + "'");
}

Result<Graph> GenerateDataset(const DatasetProfile& profile, double scale,
                              uint64_t seed) {
  double effective = (scale > 0 ? scale : profile.default_scale);
  effective *= EnvScaleMultiplier();
  effective = std::min(effective, 1.0);
  GeneratorConfig config;
  config.num_vertices = std::max<size_t>(
      64, static_cast<size_t>(profile.full_vertices * effective));
  config.num_edges = std::max<size_t>(
      config.num_vertices,
      static_cast<size_t>(config.num_vertices * profile.avg_degree / 2.0));
  config.num_labels = std::min(profile.num_labels, config.num_vertices / 2);
  // Real vertex-labeled graphs have strong label locality; the community
  // model reproduces it (and with it, the fragmentation of candidate
  // regions into multiple substructures that Sec. 5.8 exploits).
  config.num_communities = std::max<size_t>(4, config.num_labels / 4);
  config.seed = seed;
  NEURSC_LOG(Debug) << "Generating " << profile.name << " stand-in at scale "
                    << effective << " (" << config.num_vertices
                    << " vertices)";
  return GeneratePowerLawGraph(config);
}

}  // namespace neursc
