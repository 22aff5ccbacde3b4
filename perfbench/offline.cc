// offline-detect: the paper's pipeline as one closed job. The untraced run
// times whole ErrorDetector::Run calls; the traced run rebuilds the same
// pipeline step by step from the public calls, checks that it predicts
// exactly what Run predicted, and attributes its wall time to layers.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <unordered_set>

#include "core/detector.h"
#include "core/inference.h"
#include "core/trainer.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "data/prepare.h"
#include "datagen/datasets.h"
#include "obs/registry.h"
#include "sampling/sampler.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {
namespace datagen = birnn::datagen;
namespace obs = birnn::obs;
namespace sampling = birnn::sampling;

namespace {

// Sized so that neither training nor the whole-table sweep is under a
// quarter of one Run (see spec.json).
constexpr double kMoviesScale = 0.02;
constexpr int kEpochs = 4;
constexpr int kSetupRepeats = 101;
constexpr int kMinRuns = 5;
constexpr int kMaxRuns = 60;

core::DetectorOptions OfflineOptions() {
  core::DetectorOptions options;
  options.model = "etsb";
  options.sampler = "diverset";
  options.n_label_tuples = 20;
  options.trainer.epochs = kEpochs;
  return options;
}

datagen::DatasetPair MakeInputs(uint64_t seed) {
  datagen::GenOptions gen;
  gen.scale = kMoviesScale;
  gen.seed = DeriveSeed(seed, 0x0FF1);
  return datagen::MakeMovies(gen);
}

int64_t CounterValue(const std::string& name) {
  for (const auto& m : obs::Registry::Get().Snapshot()) {
    if (m.name == name) return m.counter;
  }
  return 0;
}

/// Generates the inputs kSetupRepeats times; returns the median time.
double Setup(uint64_t seed, datagen::DatasetPair* pair) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    *pair = MakeInputs(seed);
    times.push_back(SecondsSince(t0));
  }
  return Median(times);
}

void Untraced(const Args& args, Report* report) {
  datagen::DatasetPair pair;
  report->Set("setup_s", Setup(args.seed, &pair));

  const core::DetectorOptions options = OfflineOptions();
  std::vector<double> run_s;
  std::vector<uint8_t> first;
  const auto t_all = Clock::now();
  while (static_cast<int>(run_s.size()) < kMaxRuns) {
    const double elapsed = SecondsSince(t_all);
    if (static_cast<int>(run_s.size()) >= kMinRuns &&
        elapsed + Median(run_s) > args.seconds) {
      break;
    }
    core::ErrorDetector detector(options);
    const auto t0 = Clock::now();
    auto result = detector.Run(pair.dirty, pair.clean);
    run_s.push_back(SecondsSince(t0));
    report->Check(result.ok(), "ErrorDetector::Run");
    if (!result.ok()) {
      std::cout << result.status().ToString() << std::endl;
      return;
    }
    // A fixed seed makes Run a pure function of its inputs.
    if (first.empty()) {
      first = result->predicted;
    } else {
      report->Check(result->predicted == first, "repeated Run predictions");
    }
  }
  const double median = Median(run_s);
  std::cout << "offline-detect: " << run_s.size() << " runs, median "
            << median << " s:";
  for (const double s : run_s) std::cout << " " << s;
  std::cout << std::endl;
  report->Set("detect_s", median);
  report->Set("detect_p50_ms", median * 1e3);
  report->Set("peak_rss_mib", PeakRssMib());
}

void Traced(const Args& args, Report* report) {
  Tracer tracer;
  datagen::DatasetPair pair;
  Setup(args.seed, &pair);
  const core::DetectorOptions options = OfflineOptions();

  // Reference: one untraced Run.
  const auto t_ref = Clock::now();
  auto reference = core::ErrorDetector(options).Run(pair.dirty, pair.clean);
  const double untraced_s = SecondsSince(t_ref);
  report->Check(reference.ok(), "reference ErrorDetector::Run");
  if (!reference.ok()) return;

  // The same pipeline, one public call per step (core/detector.cc).
  const int64_t root = tracer.Begin("bench", "offline-detect pipeline");
  const int64_t prepare_span = tracer.Begin("data", "PrepareData", root);
  auto prepared = data::PrepareData(pair.dirty, pair.clean, options.prepare);
  tracer.End(prepare_span);
  report->Check(prepared.ok(), "PrepareData");
  if (!prepared.ok()) return;
  const data::CellFrame frame = std::move(*prepared);
  const int64_t encode_span = tracer.Begin("data", "EncodeCells", root);
  const data::CharIndex chars = data::CharIndex::Build(frame);
  data::EncodedDataset all = data::EncodeCells(frame, chars);
  tracer.End(encode_span);

  std::vector<int64_t> train_ids;
  const int64_t select_span = tracer.Begin("sampling", "Select", root);
  {
    auto sampler = sampling::MakeSampler(options.sampler);
    Rng rng(options.seed);
    auto selected = (*sampler)->Select(frame, options.n_label_tuples, &rng);
    report->Check(selected.ok(), "sampler Select");
    if (!selected.ok()) return;
    train_ids = std::move(*selected);
  }
  tracer.End(select_span);

  data::EncodedDataset train;
  data::EncodedDataset test;
  const int64_t label_span = tracer.Begin("data", "label+SplitByRowIds", root);
  {
    // The labeling step: the clean table answers for the sampled tuples.
    const std::unordered_set<int64_t> ids(train_ids.begin(), train_ids.end());
    for (int64_t i = 0; i < all.num_cells(); ++i) {
      const int64_t row = all.row_ids[static_cast<size_t>(i)];
      if (ids.count(row) == 0) continue;
      const int attr = all.attrs[static_cast<size_t>(i)];
      all.labels[static_cast<size_t>(i)] =
          TrimLeft(pair.dirty.cell(static_cast<int>(row), attr)) !=
                  TrimLeft(pair.clean.cell(static_cast<int>(row), attr))
              ? 1
              : 0;
    }
    data::SplitByRowIds(all, train_ids, &train, &test);
  }
  tracer.End(label_span);

  core::TrainHistory history;
  const core::ModelConfig config =
      core::BuildModelConfig(options, all.vocab, all.max_len, all.n_attrs);
  const int64_t fit_span = tracer.Begin("trainer", "Trainer::Fit", root);
  core::ErrorDetectionModel model(config);
  core::TrainerOptions trainer_options = options.trainer;
  trainer_options.seed = options.seed ^ 0x5EEDULL;
  trainer_options.train_threads = options.train_threads;
  trainer_options.calibrate_batchnorm = false;  // timed separately below
  history = core::Trainer(trainer_options).Fit(&model, train, &test);
  tracer.End(fit_span);

  const int64_t calibrate_span =
      tracer.Begin("inference", "CalibrateBatchNormMemoized", root);
  core::CalibrateBatchNormMemoized(&model, train);
  tracer.End(calibrate_span);

  const int64_t pad_before = CounterValue("inference/pad_rows");
  const int64_t sweep_span = tracer.Begin("inference", "sweep", root);
  core::InferenceOptions inference_options;
  inference_options.eval_batch = options.trainer.eval_batch;
  inference_options.threads = options.eval_threads;
  inference_options.bucketed = options.bucketed_inference;
  core::InferenceEngine engine(model, inference_options);
  std::vector<uint8_t> predicted;
  engine.Predict(all, &predicted);
  tracer.End(sweep_span);
  const int64_t pad_rows = CounterValue("inference/pad_rows") - pad_before;
  tracer.End(root);

  report->Check(predicted == reference->predicted,
                "step-by-step predictions equal DetectionReport.predicted");

  const double traced_s = tracer.Seconds(root);
  const double fit_s = tracer.Seconds(fit_span);
  const int epochs = static_cast<int>(history.epochs.size());
  const core::InferenceStats& stats = engine.stats();
  const double sweep_s = tracer.Seconds(sweep_span);
  report->Set("data.prepare_s", tracer.Seconds(prepare_span));
  report->Set("trainer.fit_s", fit_s);
  report->Set("trainer.epoch_s", epochs > 0 ? fit_s / epochs : 0.0);
  report->Set("trainer.cells_per_s",
      fit_s > 0 ? static_cast<double>(train.num_cells()) * epochs / fit_s
                : 0.0);
  report->Set("inference.calibrate_s", tracer.Seconds(calibrate_span));
  report->Set("inference.sweep_s", sweep_s);
  report->Set("inference.cells_per_s",
      sweep_s > 0 ? static_cast<double>(stats.cells) / sweep_s : 0.0);
  report->Set("inference.unique_frac",
      stats.cells > 0 ? static_cast<double>(stats.unique_cells) /
                            static_cast<double>(stats.cells)
                      : 0.0);
  report->Set("inference.rnn_steps", static_cast<double>(stats.rnn_steps));
  report->Set("inference.pad_frac",
      stats.cells > 0 ? static_cast<double>(pad_rows) /
                            static_cast<double>(stats.cells)
                      : 0.0);
  report->Set("sampling.select_s", tracer.Seconds(select_span));
  report->Set("data.encode_s", tracer.Seconds(encode_span));
  report->Set("quality.f1", reference->test_metrics.f1);
  const double coverage = tracer.Coverage(traced_s);
  report->Set("trace.coverage", coverage);
  report->Check(coverage >= 0.9, "trace.coverage >= 0.9 of the pipeline");
  report->Set("trace.overhead_frac",
      untraced_s > 0 ? traced_s / untraced_s - 1.0 : 0.0);
  std::cout << "offline-detect traced: pipeline " << traced_s
            << " s, untraced Run " << untraced_s << " s" << std::endl;

  const int64_t model_span = tracer.Begin("bench", "model probe");
  MeasureModel(model, all, &tracer, model_span, report);
  tracer.End(model_span);

  const std::string path = args.workdir + "/trace-offline-detect-" +
                           std::to_string(args.seed) + ".json";
  report->Check(tracer.WriteChromeTrace(path), "write Chrome trace");
}

}  // namespace

void MeasureModel(const core::ErrorDetectionModel& model,
                  const data::EncodedDataset& ds, Tracer* tracer,
                  int64_t parent, Report* report) {
  for (const int batch_cells : {256, 4}) {
    std::vector<int64_t> indices;
    for (int64_t i = 0; i < batch_cells; ++i) {
      indices.push_back(i % std::max<int64_t>(1, ds.num_cells()));
    }
    core::BatchInput batch;
    core::MakeBatchInto(ds, indices, ds.max_len, &batch);
    core::InferenceScratch scratch;
    nn::Tensor hidden;
    std::vector<float> probs;
    // Fastest of the calls made in ~0.25 s per kind: the head is a small
    // difference of two large times, so the minimum keeps noise out of it.
    double hidden_s = 1e30;
    double probs_s = 1e30;
    const std::string tag = " b" + std::to_string(batch_cells);
    for (const auto t_kind = Clock::now(); SecondsSince(t_kind) < 0.25;) {
      const auto t0 = Clock::now();
      model.ForwardHidden(batch, &hidden, &scratch);
      const auto t1 = Clock::now();
      tracer->Record("model", "ForwardHidden" + tag, t0, t1, parent);
      hidden_s = std::min(hidden_s, std::chrono::duration<double>(t1 - t0).count());
    }
    for (const auto t_kind = Clock::now(); SecondsSince(t_kind) < 0.25;) {
      const auto t0 = Clock::now();
      model.PredictProbs(batch, &probs, &scratch);
      const auto t1 = Clock::now();
      tracer->Record("model", "PredictProbs" + tag, t0, t1, parent);
      probs_s = std::min(probs_s, std::chrono::duration<double>(t1 - t0).count());
    }
    const double cells = batch_cells;
    const std::string suffix = "_b" + std::to_string(batch_cells);
    report->Set("model.hidden_us_per_cell" + suffix, hidden_s / cells * 1e6);
    report->Set("model.head_us_per_cell" + suffix,
        std::max(0.0, probs_s - hidden_s) / cells * 1e6);
  }
}

void RunOfflineDetect(const Args& args, Report* report) {
  if (args.trace) {
    Traced(args, report);
  } else {
    Untraced(args, report);
  }
}

}  // namespace perfbench
