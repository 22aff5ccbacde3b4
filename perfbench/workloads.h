// The benchmark's workloads. Each drives the library only through its
// public entry points and fills `report` with the metrics of its mode.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"
#include "core/model.h"
#include "data/encoding.h"
#include "trace.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace perfbench {

namespace core = birnn::core;
namespace data = birnn::data;
namespace nn = birnn::nn;
using birnn::Rng;
using birnn::Status;
using birnn::TrimLeft;

/// offline-detect: ErrorDetector::Run over the movies generator.
void RunOfflineDetect(const Args& args, Report* report);

/// serve-cold: an in-process loopback server over a hospital bundle,
/// driven by the load generator with never-seen cells.
void RunServe(const Args& args, Report* report);

/// Model layer probe: per-cell time of ForwardHidden (embedding +
/// recurrent stacks) and of the head (PredictProbs - ForwardHidden) at
/// 256-cell and 4-cell batches of `ds`.
void MeasureModel(const core::ErrorDetectionModel& model,
                  const data::EncodedDataset& ds, Tracer* tracer,
                  int64_t parent, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
