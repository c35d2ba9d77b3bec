// Generator and measuring program of the repository benchmark (README.md in
// this directory describes the workloads and metrics).
//
//   perfbench gen --workload W --out DIR
//       Builds the workload's fixed inputs: the data graph, queries with
//       exact counts and a train/test split, and a trained checkpoint.
//       run.py adds the seed's issue order (order.txt, a permutation of
//       the query indices).
//   perfbench measure --workload W --inputs DIR --seconds T --trace 0|1
//                     --out FILE [--trace-out FILE]
//       Loads only those inputs, drives the library through its public
//       functions and writes raw timings and every estimate as JSON; run.py
//       turns them into metrics and checks the outputs.
//
// With --trace 1 the run wraps each public call in a benchmark-owned
// TraceSpan named bench/<layer>/<call>, records per-layer samples from the
// spans, and writes the Chrome trace of its first pass to --trace-out.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "core/discriminator.h"
#include "core/feature_init.h"
#include "core/neursc.h"
#include "core/west.h"
#include "eval/workload.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/query_generator.h"
#include "matching/candidate_filter.h"
#include "matching/enumeration.h"
#include "matching/substructure.h"
#include "nn/eval.h"
#include "nn/optimizer.h"
#include "nn/tape.h"

namespace neursc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the whole process (all its threads), in seconds. The timed
/// calls of the end-to-end metrics are measured with it: with one worker
/// thread and no blocking in the calls it equals their wall time on a core
/// of their own, and on a host whose cores other tenants share it leaves
/// out the time the kernel gave the core to them, which moved wall times
/// by a third from run to run.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double CpuSecondsSince(double start) { return CpuSeconds() - start; }

/// The CPUs the calling thread may run on; empty if they cannot be read.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restricts the calling thread to `cpu`; a failure leaves it where it was.
void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

/// How the generator builds a data graph and its queries.
struct InputRecipe {
  /// Dataset stand-in (graph/generators.h profile).
  const char* profile;
  /// Share of the profile's full size; 0 takes the profile's default.
  double scale;
  std::vector<size_t> query_sizes;
  /// Matchable queries kept per size.
  size_t queries_per_size;
  /// Unmatchable (count 0) queries per size, as a share of queries_per_size.
  double unmatchable_fraction;
};

/// Yeast stand-in, 71 labels: tiny candidate sets; 12 unmatchable queries
/// per 60 matchable ones, most of which stop early in the filter.
const InputRecipe kLabelRich = {"Yeast", 0.0, {4, 8, 16}, 60, 0.2};
/// Wordnet stand-in, 5 labels: candidate regions of hundreds of vertices.
/// A smaller graph than the profile default keeps exact counting affordable
/// and an Estimate call short: the fastest calls of a run are the ones
/// that repeat from run to run, and the shorter the call, the more of them
/// a run holds.
const InputRecipe kLabelPoor = {"Wordnet", 0.02, {4, 8}, 60, 0.0};

/// One benchmark workload. The measuring run trains the shipped checkpoint
/// for kMeasuredTrainEpochs adversarial epochs, then estimates every query
/// with the checkpoint.
struct WorkloadSpec {
  const char* name;
  const InputRecipe* recipe;
};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"estimate_label_rich", &kLabelRich},
      {"estimate_label_poor", &kLabelPoor},
  };
  return kSpecs;
}

/// The data graph, the query pool, its 80/20 train/test split and the
/// checkpoint trained on it play the part of the paper's fixed datasets and
/// query workloads, and do not change with the workload seed: across splits
/// or graphs the model's q-error moves by 40-200%, far more than any bound
/// a regression check could use. The seed draws the order in which queries
/// are issued (order.txt).
constexpr uint64_t kDatasetSeed = 42;
constexpr double kTrainFraction = 0.8;
/// Queries with a larger exact count are dropped; their count stops at
/// kMaxCount + 1 matches, so the same queries are dropped on any machine.
constexpr uint64_t kMaxCount = 100000;
/// A ground-truth count slower than kCountSeconds fails the generator
/// rather than dropping the query, which would make the kept queries depend
/// on machine speed (the slowest count of any workload took 0.33 s on the
/// machine README.md describes). The search is cut at kCountLimitSeconds so
/// that such a failure cannot hang.
constexpr double kCountSeconds = 1.0;
constexpr double kCountLimitSeconds = 4.0 * kCountSeconds;
/// A query size fails after this many draws per query it keeps.
constexpr size_t kMaxDrawsPerQuery = 30;
/// Epochs the generator trains the shipped checkpoint for.
constexpr size_t kCheckpointEpochs = 8;
constexpr size_t kCheckpointPretrainEpochs = 4;
/// Adversarial epochs of the measured Train call, from the checkpoint.
constexpr size_t kMeasuredTrainEpochs = 1;
/// Held-out share of the measured Train call's examples (validation q-error
/// after every epoch; early stopping is effectively off, see TrainConfig).
constexpr double kValidationFraction = 0.2;
/// Set-ups before the first timed call.
constexpr size_t kSetupRepeats = 5;
/// The untraced run measures in rounds until --seconds is used up: one
/// Train repeat, whole closed-loop passes over the queries for as long as
/// that Train call took, then batch passes for this share of the closed
/// loop's time, then kSetupsPerRound more set-ups. Every metric thus gets
/// many short samples spread over the whole run, from which report.py
/// keeps the fastest: the host slows the program down by up to half for
/// seconds at a time, but never speeds it up.
constexpr double kBatchToLatency = 0.5;
constexpr size_t kSetupsPerRound = 3;
/// Empty ParallelFor regions timed for the region overhead.
constexpr size_t kRegionSamples = 2000;
constexpr uint64_t kLayerSeed = 20220612;

Result<const WorkloadSpec*> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

/// Every estimator of a run (and the generator's) shares this architecture,
/// so checkpoints load into any of them.
NeurSCConfig BaseConfig() { return NeurSCConfig{}; }

NeurSCConfig TrainConfig() {
  NeurSCConfig config = BaseConfig();
  config.epochs = kMeasuredTrainEpochs;
  config.pretrain_epochs = 0;
  config.validation_fraction = kValidationFraction;
  // Patience past the last epoch: every epoch runs.
  config.early_stop_patience = kMeasuredTrainEpochs + 1;
  return config;
}

// ---------------------------------------------------------------------------
// Input files

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string ExactDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

struct Example {
  Graph query;
  double count = 0.0;
  bool test = false;
  uint64_t fingerprint = 0;
};

Status WriteInputs(const std::string& dir, const WorkloadSpec& spec,
                   const Graph& data, const Workload& workload,
                   const WorkloadSplit& split) {
  Status st = WriteGraphBinary(data, dir + "/data.nscg");
  if (!st.ok()) return st;
  std::vector<bool> is_test(workload.examples.size(), false);
  for (size_t i : split.test) is_test[i] = true;
  std::ofstream queries(dir + "/queries.txt");
  std::ofstream examples(dir + "/examples.tsv");
  std::ofstream manifest(dir + "/manifest.tsv");
  if (!queries || !examples || !manifest) {
    return Status::IOError("cannot write inputs under " + dir);
  }
  examples << "split\tsize\tcount\tfingerprint\n";
  for (size_t i = 0; i < workload.examples.size(); ++i) {
    const TrainingExample& ex = workload.examples[i];
    st = WriteGraphToStream(ex.query, queries);
    if (!st.ok()) return st;
    char count[40];
    std::snprintf(count, sizeof(count), "%.17g", ex.count);
    examples << (is_test[i] ? "test" : "train") << '\t' << workload.sizes[i]
             << '\t' << count << '\t' << Hex(ex.query.Fingerprint()) << '\n';
  }
  manifest << "workload\t" << spec.name << "\ndata_fingerprint\t"
           << Hex(data.Fingerprint()) << '\n';
  if (!queries || !examples || !manifest) {
    return Status::IOError("write failed under " + dir);
  }
  return Status::OK();
}

/// Counts the embeddings of `query`, stopping at `cap` matches. Fails when
/// the search takes longer than kCountSeconds: dropping the query instead
/// would make the kept queries depend on machine speed.
Result<uint64_t> CappedCount(const Graph& query, const Graph& data,
                             uint64_t cap, double* slowest) {
  EnumerationOptions options;
  options.max_matches = cap;
  options.time_limit_seconds = kCountLimitSeconds;
  auto found = CountSubgraphIsomorphisms(query, data, options);
  if (!found.ok()) return found.status();
  *slowest = std::max(*slowest, found->elapsed_seconds);
  if (found->elapsed_seconds > kCountSeconds) {
    return Status::ResourceExhausted(
        "a ground-truth count took " + std::to_string(found->elapsed_seconds) +
        " s, more than the generator's " + std::to_string(kCountSeconds) +
        " s");
  }
  return found->count;
}

/// `query` with every vertex given a random label of `data`.
Result<Graph> Relabel(const Graph& query, const Graph& data, Rng* rng) {
  GraphBuilder builder;
  for (size_t v = 0; v < query.NumVertices(); ++v) {
    builder.AddVertex(static_cast<Label>(
        rng->UniformIndex(std::max<size_t>(data.NumLabels(), 1))));
  }
  for (size_t v = 0; v < query.NumVertices(); ++v) {
    for (VertexId w : query.Neighbors(static_cast<VertexId>(v))) {
      if (v < w) (void)builder.AddEdge(static_cast<VertexId>(v), w);
    }
  }
  return builder.Build();
}

/// Draws the queries of each size as BuildWorkload does (QueryGenerator
/// extractions, then extractions with random labels for the unmatchable
/// ones) and keeps, in draw order, the first queries_per_size with an exact
/// count of at most kMaxCount and the first unmatchable ones.
/// BuildWorkload itself is not used: it drops a query whose count runs out
/// of its time budget, and on the label-poor graph some counts still ran
/// out at 60 s, so the queries it keeps would depend on machine speed.
/// Coming up short fails, since it would silently change the measured
/// query mix.
Result<Workload> BuildQueries(const Graph& data, const InputRecipe& recipe) {
  const size_t want_unmatchable =
      static_cast<size_t>(recipe.unmatchable_fraction *
                          static_cast<double>(recipe.queries_per_size));
  Workload kept;
  for (size_t s = 0; s < recipe.query_sizes.size(); ++s) {
    const size_t size = recipe.query_sizes[s];
    QueryGeneratorConfig config;
    config.query_size = size;
    config.edge_keep_probability = WorkloadOptions{}.edge_keep_probability;
    config.seed = kDatasetSeed + s;
    QueryGenerator generator(data, config);
    Rng relabel_rng(kDatasetSeed + 7777 + size);
    size_t matchable = 0;
    size_t unmatchable = 0;
    double slowest = 0.0;
    for (size_t draws = 0; matchable < recipe.queries_per_size; ++draws) {
      if (draws == kMaxDrawsPerQuery * recipe.queries_per_size) break;
      auto query = generator.Generate();
      if (!query.ok()) continue;
      auto count = CappedCount(*query, data, kMaxCount + 1, &slowest);
      if (!count.ok()) return count.status();
      if (*count > kMaxCount) continue;
      kept.sizes.push_back(size);
      kept.examples.push_back(TrainingExample{std::move(query).value(),
                                              static_cast<double>(*count)});
      ++matchable;
    }
    for (size_t draws = 0; unmatchable < want_unmatchable; ++draws) {
      if (draws == kMaxDrawsPerQuery * want_unmatchable) break;
      auto query = generator.Generate();
      if (!query.ok()) continue;
      auto relabelled = Relabel(*query, data, &relabel_rng);
      if (!relabelled.ok()) continue;
      auto count = CappedCount(*relabelled, data, 1, &slowest);
      if (!count.ok()) return count.status();
      if (*count != 0) continue;
      kept.sizes.push_back(size);
      kept.examples.push_back(
          TrainingExample{std::move(relabelled).value(), 0.0});
      ++unmatchable;
    }
    if (matchable < recipe.queries_per_size ||
        unmatchable < want_unmatchable) {
      return Status::ResourceExhausted(
          "came up short for query size " + std::to_string(size) + ": " +
          std::to_string(matchable) + "/" +
          std::to_string(recipe.queries_per_size) +
          " matchable queries with count <= " + std::to_string(kMaxCount) +
          ", " + std::to_string(unmatchable) + "/" +
          std::to_string(want_unmatchable) + " unmatchable");
    }
    std::fprintf(stderr, "perfbench gen: size %zu, slowest count %.3g s\n",
                 size, slowest);
  }
  return kept;
}

Status Generate(const WorkloadSpec& spec, const std::string& dir) {
  // GenerateDataset multiplies its scale by NEURSC_SCALE; the inputs must
  // not depend on the environment.
  unsetenv("NEURSC_SCALE");
  const InputRecipe& recipe = *spec.recipe;
  auto profile = FindDatasetProfile(recipe.profile);
  if (!profile.ok()) return profile.status();
  auto data = GenerateDataset(*profile, recipe.scale, kDatasetSeed);
  if (!data.ok()) return data.status();
  auto workload = BuildQueries(*data, recipe);
  if (!workload.ok()) return workload.status();
  WorkloadSplit split =
      StratifiedSplit(*workload, kTrainFraction, kDatasetSeed);
  Status st = WriteInputs(dir, spec, *data, *workload, split);
  if (!st.ok()) return st;

  NeurSCConfig config = BaseConfig();
  config.epochs = kCheckpointEpochs;
  config.pretrain_epochs = kCheckpointPretrainEpochs;
  NeurSCEstimator estimator(*data, config);
  auto stats = estimator.Train(Gather(*workload, split.train));
  if (!stats.ok()) return stats.status();
  return estimator.SaveModel(dir + "/model.ckpt");
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// queries.txt holds the query graphs back to back, each starting with its
/// 't' header line.
Result<std::vector<Graph>> ReadQueries(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  std::vector<Graph> queries;
  std::string chunk;
  std::istringstream lines(*text);
  std::string line;
  auto flush = [&]() -> Status {
    if (chunk.empty()) return Status::OK();
    auto g = ReadGraphFromString(chunk);
    if (!g.ok()) return g.status();
    queries.push_back(std::move(g).value());
    chunk.clear();
    return Status::OK();
  };
  while (std::getline(lines, line)) {
    if (line.rfind("t ", 0) == 0) {
      Status st = flush();
      if (!st.ok()) return st;
    }
    chunk += line;
    chunk += '\n';
  }
  Status st = flush();
  if (!st.ok()) return st;
  return queries;
}

Result<std::vector<Example>> ReadExamples(const std::string& dir) {
  auto queries = ReadQueries(dir + "/queries.txt");
  if (!queries.ok()) return queries.status();
  std::ifstream in(dir + "/examples.tsv");
  if (!in) return Status::IOError("cannot open examples.tsv");
  std::string line;
  std::getline(in, line);  // header
  std::vector<Example> examples;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string split, fingerprint;
    size_t size = 0;
    double count = 0.0;
    if (!(fields >> split >> size >> count >> fingerprint)) {
      return Status::IOError("malformed examples.tsv line: " + line);
    }
    if (examples.size() >= queries->size()) {
      return Status::IOError("examples.tsv has more rows than queries.txt");
    }
    Example ex;
    ex.query = std::move((*queries)[examples.size()]);
    ex.count = count;
    ex.test = split == "test";
    ex.fingerprint = std::strtoull(fingerprint.c_str(), nullptr, 16);
    examples.push_back(std::move(ex));
  }
  if (examples.size() != queries->size()) {
    return Status::IOError("examples.tsv and queries.txt disagree");
  }
  return examples;
}

/// order.txt: the issue order, a permutation of the query indices.
Result<std::vector<size_t>> ReadOrder(const std::string& path, size_t n) {
  std::ifstream in(path);
  std::vector<size_t> order;
  std::vector<bool> seen(n, false);
  size_t q = 0;
  while (in >> q) {
    if (q >= n || seen[q]) {
      return Status::IOError("order.txt is not a permutation of the queries");
    }
    seen[q] = true;
    order.push_back(q);
  }
  if (order.size() != n) {
    return Status::IOError("order.txt is not a permutation of the queries");
  }
  return order;
}

Result<uint64_t> ManifestDataFingerprint(const std::string& dir) {
  std::ifstream in(dir + "/manifest.tsv");
  std::string key, value;
  while (in >> key >> value) {
    if (key == "data_fingerprint") {
      return static_cast<uint64_t>(std::strtoull(value.c_str(), nullptr, 16));
    }
  }
  return Status::IOError("manifest.tsv has no data_fingerprint");
}

// ---------------------------------------------------------------------------
// JSON output

class Json {
 public:
  Json& Key(const std::string& k) {
    Sep();
    out_ += '"' + k + "\":";
    fresh_ = true;
    return *this;
  }
  Json& Num(double v) {
    Sep();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
    out_ += buf;
    return *this;
  }
  Json& Str(const std::string& s) {
    Sep();
    out_ += '"' + s + '"';
    return *this;
  }
  Json& Bool(bool b) {
    Sep();
    out_ += b ? "true" : "false";
    return *this;
  }
  Json& Open(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& Close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  template <typename T>
  Json& Nums(const std::vector<T>& values) {
    Open('[');
    for (const T& v : values) Num(static_cast<double>(v));
    return Close(']');
  }
  Json& Strs(const std::vector<std::string>& values) {
    Open('[');
    for (const std::string& v : values) Str(v);
    return Close(']');
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

/// Every estimate a phase produced, for run.py's output checks.
struct Calls {
  std::vector<size_t> query;
  /// Hex-float estimate, or "error: ..." for a non-ok Status.
  std::vector<std::string> estimate;
  std::vector<int> early;
  /// Per-call latency; only the closed loop fills it.
  std::vector<double> ms;

  void Add(size_t q, const Result<EstimateInfo>& info) {
    query.push_back(q);
    if (info.ok()) {
      estimate.push_back(ExactDouble(info->count));
      early.push_back(info->early_terminated ? 1 : 0);
    } else {
      estimate.push_back("error: " + info.status().ToString());
      early.push_back(0);
    }
  }

  void Write(Json* json) const {
    json->Open('{');
    json->Key("query").Nums(query);
    json->Key("estimate").Strs(estimate);
    json->Key("early").Nums(early);
    json->Key("ms").Nums(ms);
    json->Close('}');
  }
};

// ---------------------------------------------------------------------------
// Measuring run

/// What one set-up leaves behind: the data graph, the queries and a ready
/// estimator.
struct Setup {
  std::unique_ptr<Graph> data;
  std::vector<Example> examples;
  std::unique_ptr<NeurSCEstimator> estimator;
};

struct SetupTimes {
  std::vector<double> total_s, graph_read_s, load_model_s;
};

Result<Setup> RunSetup(const std::string& dir, SetupTimes* times) {
  Setup setup;
  const double start = CpuSeconds();
  TraceSpan read_span("bench/graph/ReadGraphBinary");
  auto data = ReadGraphBinary(dir + "/data.nscg");
  read_span.End();
  if (!data.ok()) return data.status();
  setup.data = std::make_unique<Graph>(std::move(data).value());
  auto examples = ReadExamples(dir);
  if (!examples.ok()) return examples.status();
  setup.examples = std::move(examples).value();
  {
    TraceSpan span("bench/core/NeurSCEstimator");
    setup.estimator =
        std::make_unique<NeurSCEstimator>(*setup.data, BaseConfig());
  }
  TraceSpan load_span("bench/core/LoadModel");
  Status st = setup.estimator->LoadModel(dir + "/model.ckpt");
  load_span.End();
  if (!st.ok()) return st;
  times->total_s.push_back(CpuSecondsSince(start));
  times->graph_read_s.push_back(read_span.ElapsedSeconds());
  times->load_model_s.push_back(load_span.ElapsedSeconds());
  return setup;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t ArenaGrows() {
  return MetricsRegistry::Global().GetCounter("eval/arena_grows")->Value();
}

/// Sequential Estimate over every query, in issue order.
Calls SequentialPass(NeurSCEstimator* estimator,
                     const std::vector<Example>& examples,
                     const std::vector<size_t>& order,
                     std::vector<EstimateInfo>* infos) {
  Calls calls;
  for (size_t q : order) {
    const double start = CpuSeconds();
    TraceSpan span("bench/core/Estimate");
    auto info = estimator->Estimate(examples[q].query);
    span.End();
    calls.ms.push_back(1e3 * CpuSecondsSince(start));
    calls.Add(q, info);
    if (infos != nullptr && info.ok()) infos->push_back(*info);
  }
  return calls;
}

/// One EstimateBatch call over every query in issue order, as the library's
/// own callers send it (EvaluateBatch, the active learner's pool scoring).
/// Returns the call's CPU time.
double BatchPass(NeurSCEstimator* estimator, const std::vector<Graph>& queries,
                 const std::vector<size_t>& order, Calls* calls) {
  const double start = CpuSeconds();
  TraceSpan span("bench/core/EstimateBatch");
  auto infos = estimator->EstimateBatch(queries);
  span.End();
  const double seconds = CpuSecondsSince(start);
  for (size_t k = 0; k < order.size(); ++k) {
    calls->Add(order[k], infos.ok() ? Result<EstimateInfo>((*infos)[k])
                                    : Result<EstimateInfo>(infos.status()));
  }
  return seconds;
}

/// Per-layer samples of the traced run, keyed by the metric they feed.
struct LayerSamples {
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> values;

  void Add(const std::string& name, double v) { series[name].push_back(v); }
};

/// What the first layer pass keeps per query for the training layers.
struct PreparedQuery {
  ExtractionResult extraction;
  Matrix query_features;
  std::vector<Matrix> sub_features;
};

/// One pass of the estimation layers over every query, each public call in
/// its own span. `first` collects the per-query counts (deterministic) and
/// keeps the prepared queries; later passes only time.
void LayerPass(const Graph& data, const std::vector<Example>& examples,
               const FeatureInitializer& features, WEstModel* model,
               EvalContext* ctx, bool first, LayerSamples* out,
               std::vector<PreparedQuery>* prepared) {
  const CandidateFilterOptions filter = BaseConfig().filter;
  const bool timed = !first;
  double feature_rows = 0.0;
  for (size_t q = 0; q < examples.size(); ++q) {
    const Graph& query = examples[q].query;
    TraceSpan filter_span("bench/matching/ComputeCandidateSets");
    auto cs = ComputeCandidateSets(query, data, filter);
    filter_span.End();
    TraceSpan extract_span("bench/matching/ExtractSubstructures");
    auto ext = ExtractSubstructures(query, data, filter);
    extract_span.End();
    if (!cs.ok() || !ext.ok()) {
      out->Add("layer_errors", 1.0);
      if (first) prepared->emplace_back();
      continue;
    }
    if (timed) {
      out->Add("filter_s", filter_span.ElapsedSeconds());
      out->Add("extract_s", extract_span.ElapsedSeconds());
    }
    if (first) {
      out->Add("candidates_per_qvertex",
               static_cast<double>(cs->TotalSize()) /
                   static_cast<double>(query.NumVertices()));
      out->Add("prune_ratio", static_cast<double>(cs->UnionSize()) /
                                  static_cast<double>(data.NumVertices()));
      out->Add("substructures",
               static_cast<double>(ext->substructures.size()));
      out->Add("components_total",
               static_cast<double>(ext->stats.components_total));
      out->Add("components_kept",
               static_cast<double>(ext->stats.components_kept));
      out->Add("early_terminated", ext->early_terminate ? 1.0 : 0.0);
    }

    PreparedQuery prep;
    {
      TraceSpan span("bench/core/FeatureInitializer::Compute");
      prep.query_features = features.Compute(query);
      span.End();
      if (timed) out->Add("features_s", span.ElapsedSeconds());
    }
    feature_rows += static_cast<double>(prep.query_features.rows());
    const auto& subs = ext->substructures;
    for (size_t j = 0; j < subs.size(); ++j) {
      TraceSpan span("bench/core/FeatureInitializer::Compute");
      prep.sub_features.push_back(features.Compute(subs[j].graph));
      span.End();
      if (timed) out->Add("features_s", span.ElapsedSeconds());
      feature_rows += static_cast<double>(prep.sub_features.back().rows());
    }
    if (!ext->early_terminate) {
      for (size_t j = 0; j < subs.size(); ++j) {
        const uint64_t seed = kLayerSeed + 7919 * q + j;
        {
          Rng rng(seed);
          TraceSpan span("bench/core/BuildBipartiteEdges");
          EdgeIndex edges = BuildBipartiteEdges(query, subs[j], &rng);
          span.End();
          if (first) {
            out->Add("bipartite_edges", static_cast<double>(edges.size()));
          }
        }
        Rng rng(seed);
        ctx->Reset();
        TraceSpan span("bench/nn/WEstModel::Forward");
        auto fw = model->Forward(ctx, query, subs[j], prep.query_features,
                                 prep.sub_features[j], &rng);
        double prediction = ctx->Value(fw.prediction).scalar();
        span.End();
        if (!std::isfinite(prediction)) out->Add("layer_errors", 1.0);
        if (timed) out->Add("west_forward_s", span.ElapsedSeconds());
      }
    }
    if (first) {
      prep.extraction = std::move(ext).value();
      prepared->push_back(std::move(prep));
    }
  }
  if (first) out->values["feature_rows"] = feature_rows;
}

/// One pass of the training layers over the training examples' substructures:
/// a WEst forward + q-error loss + backward on a Tape, the critic's scoring
/// and update (Alg. 3 lines 10-12), and an Adam step of the estimator.
void TrainingLayerPass(const std::vector<Example>& examples,
                       const std::vector<PreparedQuery>& prepared,
                       WEstModel* model, Discriminator* critic,
                       LayerSamples* out) {
  AdamOptimizer opt_theta(model->Parameters());
  AdamOptimizer opt_omega(critic->Parameters());
  for (size_t q = 0; q < prepared.size(); ++q) {
    if (examples[q].test || prepared[q].extraction.early_terminate) continue;
    const auto& subs = prepared[q].extraction.substructures;
    for (size_t j = 0; j < subs.size(); ++j) {
      Rng rng(kLayerSeed + 104729 * q + j);
      Tape tape;
      TraceSpan fb_span("bench/nn/Tape::ForwardBackward");
      auto fw = model->Forward(&tape, examples[q].query, subs[j],
                               prepared[q].query_features,
                               prepared[q].sub_features[j], &rng);
      Var loss = tape.QErrorLoss(fw.prediction, examples[q].count);
      tape.Backward(loss);
      fb_span.End();
      out->Add("tape_fwd_bwd_s", fb_span.ElapsedSeconds());

      Tape critic_tape;
      Var hq = critic_tape.Constant(tape.Value(fw.query_repr));
      Var hs = critic_tape.Constant(tape.Value(fw.sub_repr));
      TraceSpan score_span("bench/core/Discriminator::Score");
      Var sq = critic->Score(&critic_tape, hq);
      Var ss = critic->Score(&critic_tape, hs);
      score_span.End();
      out->Add("critic_score_s", score_span.ElapsedSeconds());
      Correspondence pairs = SelectCorrespondenceByScores(
          critic_tape.Value(sq), critic_tape.Value(ss),
          subs[j].local_candidates);
      if (pairs.size() > 0) {
        Var lw = WassersteinLoss(&critic_tape, sq, ss, pairs);
        critic_tape.Backward(critic_tape.Scale(lw, -1.0f));
        opt_omega.Step();
        opt_omega.ZeroGrad();
        TraceSpan clamp_span("bench/core/Discriminator::ClampWeights");
        critic->ClampWeights();
      }

      TraceSpan step_span("bench/nn/AdamOptimizer::Step");
      opt_theta.Step();
      step_span.End();
      opt_theta.ZeroGrad();
      out->Add("optimizer_step_s", step_span.ElapsedSeconds());
    }
  }
}

struct MeasureArgs {
  const WorkloadSpec* spec = nullptr;
  std::string inputs;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string trace_out;
};

Status Measure(const MeasureArgs& args) {
  const WorkloadSpec& spec = *args.spec;
  if (!MetricsEnabled()) {
    return Status::InvalidArgument(
        "metrics are disabled (NEURSC_METRICS=off); the pool arena count "
        "needs them");
  }
  if (args.trace) TraceRecorder::Global().Start();

  // --- Set-up, repeated; the last one is kept. The previous one is
  // destroyed whole (estimator before graph) before the next starts, so
  // only one is ever resident.
  SetupTimes setup_times;
  std::optional<Setup> setup;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    setup.reset();
    auto next = RunSetup(args.inputs, &setup_times);
    if (!next.ok()) return next.status();
    setup.emplace(std::move(next).value());
  }
  const auto measure_start = Clock::now();
  const Graph& data = *setup->data;
  const std::vector<Example>& examples = setup->examples;
  auto order = ReadOrder(args.inputs + "/order.txt", examples.size());
  if (!order.ok()) return order.status();
  std::vector<Graph> batch_queries;
  for (size_t q : *order) batch_queries.push_back(examples[q].query);

  auto manifest_fp = ManifestDataFingerprint(args.inputs);
  if (!manifest_fp.ok()) return manifest_fp.status();
  bool fingerprints_ok = *manifest_fp == data.Fingerprint();
  for (const Example& ex : examples) {
    fingerprints_ok =
        fingerprints_ok && ex.fingerprint == ex.query.Fingerprint();
  }

  // --- Training: one Train call of a fixed number of adversarial epochs
  // from the checkpoint, on a fresh estimator. Training is deterministic,
  // so the repeats in the untraced rounds give the same model and
  // statistics.
  std::vector<TrainingExample> train_set;
  for (const Example& ex : examples) {
    if (!ex.test) train_set.push_back(TrainingExample{ex.query, ex.count});
  }
  const std::string checkpoint = args.inputs + "/model.ckpt";
  std::unique_ptr<NeurSCEstimator> trainer;
  TrainStats train;
  std::vector<double> train_s;
  auto train_once = [&]() -> Status {
    trainer = std::make_unique<NeurSCEstimator>(data, TrainConfig());
    Status st = trainer->LoadModel(checkpoint);
    if (!st.ok()) return st;
    const double start = CpuSeconds();
    TraceSpan span("bench/core/Train");
    auto stats = trainer->Train(train_set);
    span.End();
    train_s.push_back(CpuSecondsSince(start));
    if (!stats.ok()) return stats.status();
    train = std::move(stats).value();
    return Status::OK();
  };
  if (Status st = train_once(); !st.ok()) return st;

  // --- Estimation. `sequential` and `batched` start from the same
  // checkpoint, so EstimateBatch must match Estimate bit for bit.
  NeurSCEstimator& sequential = *setup->estimator;
  NeurSCEstimator batched(data, BaseConfig());
  TraceSpan load_span("bench/core/LoadModel");
  Status st = batched.LoadModel(checkpoint);
  load_span.End();
  if (!st.ok()) return st;
  Calls first_sequential =
      SequentialPass(&sequential, examples, *order, nullptr);
  Calls first_batch;
  BatchPass(&batched, batch_queries, *order, &first_batch);

  Json json;
  json.Open('{');
  json.Key("workload").Str(spec.name);
  json.Key("threads").Num(static_cast<double>(DefaultThreadCount()));
  json.Key("data_vertices").Num(static_cast<double>(data.NumVertices()));
  json.Key("fingerprints_ok").Bool(fingerprints_ok);
  // Read before the timed loops, whose per-call records belong to the
  // benchmark, not to the program.
  json.Key("peak_rss_mb").Num(PeakRssMb());
  json.Key("sequential");
  first_sequential.Write(&json);
  json.Key("batch");
  first_batch.Write(&json);

  if (!args.trace) {
    // The closed loop: one client issues the next Estimate when the
    // previous returns, cycling through the queries in issue order, in
    // whole passes.
    Calls latency;
    Calls batch_loop;
    std::vector<double> pass_s;
    const std::vector<int> cpus = AllowedCpus();
    size_t round = 0;
    do {
      // Each round runs on the next CPU the process may use, so that every
      // run samples all of them: left alone, the thread can stay for a
      // whole run on a CPU whose core another tenant keeps busy.
      if (!cpus.empty()) PinToCpu(cpus[round++ % cpus.size()]);
      if (Status st = train_once(); !st.ok()) return st;
      const double loop_start = CpuSeconds();
      do {
        for (size_t q : *order) {
          const double start = CpuSeconds();
          auto info = sequential.Estimate(examples[q].query);
          latency.ms.push_back(1e3 * CpuSecondsSince(start));
          latency.Add(q, info);
        }
      } while (CpuSecondsSince(loop_start) < train_s.back());
      const double batch_budget =
          kBatchToLatency * CpuSecondsSince(loop_start);
      double batch_s = 0.0;
      do {
        pass_s.push_back(
            BatchPass(&batched, batch_queries, *order, &batch_loop));
        batch_s += pass_s.back();
      } while (batch_s < batch_budget);
      for (size_t i = 0; i < kSetupsPerRound; ++i) {
        // Destroyed at once; peak_rss_mb was read before the rounds.
        auto extra = RunSetup(args.inputs, &setup_times);
        if (!extra.ok()) return extra.status();
      }
    } while (SecondsSince(measure_start) < args.seconds);
    json.Key("latency");
    latency.Write(&json);
    json.Key("batch_loop");
    batch_loop.Write(&json);
    json.Key("batch_pass_s").Nums(pass_s);
  } else {
    // Traced closed-loop pass (the tracing overhead is its p50 against the
    // untraced run's), after the quality pass has warmed the estimator up;
    // its EstimateInfos give the prepare/infer split. Tasks land on the
    // estimator's pooled EvalContexts in no fixed order, so their arenas may
    // still grow here; the count is reported, and the zero-growth check is
    // made on `ctx` below, which sees the same forward passes in a fixed
    // order.
    LayerSamples layers;
    std::vector<EstimateInfo> infos;
    const int64_t pool_grows_before = ArenaGrows();
    Calls traced = SequentialPass(&sequential, examples, *order, &infos);
    layers.values["pool_arena_grows"] =
        static_cast<double>(ArenaGrows() - pool_grows_before);
    for (const EstimateInfo& info : infos) {
      layers.Add("estimate_prepare_s", info.extraction_seconds);
      layers.Add("estimate_infer_s", info.inference_seconds);
      layers.Add("estimate_total_s", info.total_seconds);
      layers.Add("substructures_total",
                 static_cast<double>(info.num_substructures));
      layers.Add("substructures_used", static_cast<double>(info.num_used));
    }
    json.Key("traced_latency");
    traced.Write(&json);

    FeatureInitializer features(data, BaseConfig().west.feature_hops);
    EvalContext ctx;
    std::vector<PreparedQuery> prepared;
    LayerPass(data, examples, features, &sequential.model(), &ctx, true,
              &layers, &prepared);
    TrainingLayerPass(examples, prepared, &trainer->model(), trainer->critic(),
                      &layers);
    for (size_t i = 0; i < kRegionSamples; ++i) {
      TraceSpan span("bench/common/ParallelFor");
      ParallelFor(DefaultThreadCount(), [](size_t) {});
      span.End();
      layers.Add("region_s", span.ElapsedSeconds());
    }
    layers.values["pool_threads"] =
        static_cast<double>(WorkerPoolThreadCount());
    // The Chrome trace keeps the first pass of every layer; later passes
    // only add samples.
    Status trace_status = TraceRecorder::Global().WriteChromeTrace(
        args.trace_out);
    if (!trace_status.ok()) return trace_status;
    const uint64_t grows_before = ctx.arena_grows();
    size_t passes = 0;
    do {
      LayerPass(data, examples, features, &sequential.model(), &ctx, false,
                &layers, nullptr);
      ++passes;
    } while (SecondsSince(measure_start) < args.seconds);
    layers.values["layer_passes"] = static_cast<double>(passes);
    layers.values["arena_grows"] =
        static_cast<double>(ctx.arena_grows() - grows_before);
    layers.values["arena_bytes"] = static_cast<double>(ctx.arena_bytes());

    json.Key("layers").Open('{');
    for (const auto& [name, samples] : layers.series) {
      json.Key(name).Nums(samples);
    }
    for (const auto& [name, value] : layers.values) json.Key(name).Num(value);
    json.Close('}');
  }
  json.Key("setup_s").Nums(setup_times.total_s);
  json.Key("graph_read_s").Nums(setup_times.graph_read_s);
  json.Key("load_model_s").Nums(setup_times.load_model_s);
  json.Key("train").Open('{');
  json.Key("seconds").Nums(train_s);
  json.Key("epochs").Num(static_cast<double>(train.epoch_mean_loss.size()));
  json.Key("examples_used").Num(static_cast<double>(train.examples_used));
  json.Key("examples_skipped").Num(static_cast<double>(train.examples_skipped));
  json.Key("epoch_s").Nums(train.epoch_seconds);
  json.Key("validation_qerror").Nums(train.epoch_validation_qerror);
  json.Close('}');
  json.Close('}');

  std::ofstream out(args.out);
  out << json.str() << '\n';
  if (!out) return Status::IOError("cannot write " + args.out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Command line

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  perfbench gen --workload W --out DIR\n"
               "  perfbench measure --workload W --inputs DIR --seconds T "
               "--trace 0|1 --out FILE [--trace-out FILE]\n");
  return 2;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2 || (argc - 2) % 2 != 0) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  auto flag = [&](const std::string& name) -> std::string {
    auto it = flags.find(name);
    return it == flags.end() ? std::string() : it->second;
  };
  auto spec = FindWorkload(flag("--workload"));
  if (!spec.ok()) return Fail(spec.status());

  if (command == "gen" && !flag("--out").empty()) {
    Status st = Generate(**spec, flag("--out"));
    return st.ok() ? 0 : Fail(st);
  }
  if (command == "measure" && !flag("--inputs").empty() &&
      !flag("--out").empty()) {
    MeasureArgs args;
    args.spec = *spec;
    args.inputs = flag("--inputs");
    args.out = flag("--out");
    args.seconds = std::atof(flag("--seconds").c_str());
    args.trace = flag("--trace") == "1";
    args.trace_out = flag("--trace-out");
    if (args.trace && args.trace_out.empty()) return Usage();
    Status st = Measure(args);
    return st.ok() ? 0 : Fail(st);
  }
  return Usage();
}

}  // namespace
}  // namespace neursc::perfbench

int main(int argc, char** argv) {
  return neursc::perfbench::Main(argc, argv);
}
