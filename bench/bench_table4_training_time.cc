// Reproduces Table 4: training time (seconds) for one epoch, Q4 workload,
// for LSS, NeurSC-I, NeurSC-D and full NeurSC on every dataset.
//
// Additionally sweeps NEURSC_THREADS over full multi-epoch training runs
// and reports the serial-vs-parallel speedup together with a bit-level
// agreement check of the final weights and loss curves (the training
// determinism contract of docs/threading.md). The process exits non-zero
// if a Table 4 row's training fails (its cell prints -1.000) or any swept
// thread count disagrees with the serial run, which lets ci.sh use this
// binary as the training-throughput smoke.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"

namespace neursc {
namespace bench {
namespace {

/// Scoped NEURSC_THREADS override; restores the previous value on exit.
class ThreadsOverride {
 public:
  explicit ThreadsOverride(size_t n) {
    const char* old = std::getenv("NEURSC_THREADS");
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    setenv("NEURSC_THREADS", std::to_string(n).c_str(), 1);
  }
  ~ThreadsOverride() {
    if (had_old_) {
      setenv("NEURSC_THREADS", old_.c_str(), 1);
    } else {
      unsetenv("NEURSC_THREADS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

struct SweepRun {
  TrainStats stats;
  std::vector<Matrix> weights;  // model then critic parameters
  bool ok = false;
};

SweepRun TrainAtThreadCount(const Graph& data, const NeurSCConfig& config,
                            const std::vector<TrainingExample>& train,
                            size_t threads) {
  ThreadsOverride guard(threads);
  SweepRun run;
  NeurSCEstimator estimator(data, config);
  auto stats = estimator.Train(train);
  if (!stats.ok()) {
    std::fprintf(stderr, "train at %zu threads: %s\n", threads,
                 stats.status().ToString().c_str());
    return run;
  }
  run.stats = *stats;
  for (Parameter* p : estimator.model().Parameters()) {
    run.weights.push_back(p->value);
  }
  if (estimator.critic() != nullptr) {
    for (Parameter* p : estimator.critic()->Parameters()) {
      run.weights.push_back(p->value);
    }
  }
  run.ok = true;
  return run;
}

bool BitIdenticalWeights(const std::vector<Matrix>& a,
                         const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rows() != b[i].rows() || a[i].cols() != b[i].cols()) return false;
    if (std::memcmp(a[i].data(), b[i].data(),
                    a[i].rows() * a[i].cols() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Full-training NEURSC_THREADS sweep on the first buildable dataset.
/// Returns false when a parallel run diverges from the serial reference.
bool RunThreadSweep(const BenchEnv& env) {
  const size_t kThreadCounts[] = {1, 2, 8};
  Result<BenchDataset> ds = Status::InvalidArgument("no dataset profiles");
  for (const auto& profile : AllDatasetProfiles()) {
    ds = BuildBenchDataset(profile.name, env, {4});
    if (ds.ok()) break;
  }
  if (!ds.ok()) {
    std::fprintf(stderr, "thread sweep: %s\n", ds.status().ToString().c_str());
    return false;
  }
  auto train = Gather(ds->workload, ds->split.train);
  NeurSCConfig config = DefaultNeurSCConfig(env);

  SweepRun reference = TrainAtThreadCount(ds->graph, config, train, 1);
  if (!reference.ok) return false;
  double serial_seconds = reference.stats.total_seconds;

  bool all_agree = true;
  std::vector<std::vector<std::string>> rows;
  for (size_t threads : kThreadCounts) {
    SweepRun run = threads == 1
                       ? reference
                       : TrainAtThreadCount(ds->graph, config, train, threads);
    if (!run.ok) return false;
    bool weights_ok = BitIdenticalWeights(run.weights, reference.weights);
    bool losses_ok =
        run.stats.epoch_mean_loss == reference.stats.epoch_mean_loss &&
        run.stats.epoch_validation_qerror ==
            reference.stats.epoch_validation_qerror;
    all_agree = all_agree && weights_ok && losses_ok;
    double speedup = run.stats.total_seconds > 0.0
                         ? serial_seconds / run.stats.total_seconds
                         : 0.0;
    char buf[48];
    std::vector<std::string> row;
    row.push_back(std::to_string(threads));
    std::snprintf(buf, sizeof(buf), "%.3f", run.stats.total_seconds);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
    row.push_back(buf);
    row.push_back(weights_ok && losses_ok ? "yes" : "NO");
    rows.push_back(std::move(row));
  }
  PrintSection("Training NEURSC_THREADS sweep (" + ds->profile.name +
               ", full run)");
  PrintTable({"Threads", "Seconds", "Speedup", "Bit-identical"}, rows);
  if (!all_agree) {
    std::fprintf(stderr,
                 "FAIL: parallel training diverged from the serial run\n");
  }
  return all_agree;
}

/// Trains `model` (configured for one epoch) and returns that epoch's wall
/// time, or -1 when training fails.
double OneEpochSeconds(NeurSCAdapter* model,
                       const std::vector<TrainingExample>& train) {
  Status st = model->Train(train);
  if (!st.ok()) return -1.0;
  const auto& seconds = model->train_stats().epoch_seconds;
  if (seconds.empty()) return -1.0;
  return seconds.back();
}

int Run() {
  BenchEnv env = BenchEnv::FromEnvironment();
  std::vector<std::vector<std::string>> rows;
  bool training_failed = false;
  for (const auto& profile : AllDatasetProfiles()) {
    auto ds = BuildBenchDataset(profile.name, env, {4});
    if (!ds.ok()) {
      std::fprintf(stderr, "%s: %s\n", profile.name.c_str(),
                   ds.status().ToString().c_str());
      continue;
    }
    auto train = Gather(ds->workload, ds->split.train);

    // LSS: one epoch.
    LssEstimator::Options lss_options = DefaultLssOptions(env);
    lss_options.epochs = 1;
    LssEstimator lss(ds->graph, lss_options);
    double lss_seconds = -1.0;
    if (lss.Train(train).ok() && !lss.epoch_seconds().empty()) {
      lss_seconds = lss.epoch_seconds().back();
    }

    // NeurSC variants: one epoch each. The full model's epoch is an
    // adversarial one (pretrain 0), matching Table 4's per-epoch cost of
    // the discriminator-enabled phase.
    auto one_epoch_config = [&](bool adversarial) {
      NeurSCConfig config = DefaultNeurSCConfig(env);
      config.epochs = 1;
      config.pretrain_epochs = adversarial ? 0 : 1;
      return config;
    };
    auto neursc_i =
        NeurSCAdapter::IntraOnly(ds->graph, one_epoch_config(false));
    auto neursc_d = NeurSCAdapter::Dual(ds->graph, one_epoch_config(false));
    auto neursc = NeurSCAdapter::Full(ds->graph, one_epoch_config(true));

    double i_seconds = OneEpochSeconds(neursc_i.get(), train);
    double d_seconds = OneEpochSeconds(neursc_d.get(), train);
    double full_seconds = OneEpochSeconds(neursc.get(), train);
    if (std::min({lss_seconds, i_seconds, d_seconds, full_seconds}) < 0.0) {
      std::fprintf(stderr, "%s: a one-epoch training run failed\n",
                   profile.name.c_str());
      training_failed = true;
    }

    char buf[48];
    std::vector<std::string> row;
    row.push_back(profile.name);
    std::snprintf(buf, sizeof(buf), "%.3f", lss_seconds);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", i_seconds);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", d_seconds);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", full_seconds);
    row.push_back(buf);
    rows.push_back(std::move(row));
  }
  PrintSection("Table 4: Training time (seconds) for one epoch (Q4)");
  PrintTable({"Data Graph", "LSS", "NeurSC-I", "NeurSC-D", "NeurSC"}, rows);

  const bool sweep_agrees = RunThreadSweep(env);
  return sweep_agrees && !training_failed ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace neursc

int main(int argc, char** argv) {
  neursc::ObservabilitySession observability(&argc, argv);
  return neursc::bench::Run();
}
