// serve-cold: an in-process serve::Server on loopback (reactor transport)
// over a hospital bundle, driven by the single-threaded generator in
// loadgen.h with 4-cell `detect` requests and one `delta` update in ten
// operations. Every request cell is a seeded mutation of a hospital value
// that no earlier request or the training table contained, so every cell
// runs the engine.
//
// Correctness: every served detect line must equal the line rendered from
// an unmemoized InferenceEngine::PredictProbs over EncodeQueries of the
// same cells; every delta response must equal a shadow TableSession fed
// the same deltas in the server's version order; and the shadow session's
// MaterializedVerdicts() must equal its DetectAll().
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "core/content_index.h"
#include "core/detector.h"
#include "core/inference.h"
#include "datagen/datasets.h"
#include "loadgen.h"
#include "serve/batcher.h"
#include "serve/bundle.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/session.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {
namespace datagen = birnn::datagen;
namespace serve = birnn::serve;
namespace stream = birnn::stream;

namespace {

constexpr const char* kModel = "hospital";
constexpr double kHospitalScale = 0.5;
// Serving cost does not depend on the epoch count; a short schedule keeps
// set-up (which trains) cheap.
constexpr int kServeEpochs = 3;
constexpr int kSetupRepeats = 3;
constexpr int kSessionRows = 100;
constexpr int kInsertsPerRequest = 25;
constexpr int kCellsPerRequest = 4;
constexpr double kDeltaShare = 0.10;
constexpr int kConnections = 4;
constexpr int kClosedInflight = 32;
constexpr double kDrainS = 3.0;
constexpr int kHandleRequests = 200;
// Window of the windowed tails (WindowedQuantile).
constexpr double kWindowS = 0.25;

// The untraced run alternates rounds of one closed pass over
// kPassCells never-seen cells (detect_s) and one nominal open-loop
// segment of kSegmentS at kNominalRps (detect_p50_ms) until --seconds is
// spent, so both metrics sample the whole run rather than one stretch of
// it. The traced run searches serve.max_rps_at_slo on a fixed geometric
// ladder (kRungs steps from kLadderLo to kLadderHi req/s, about 8% apart)
// against the kSloMs detect p99 SLO; the ladder tops out well above the
// knee (about 250 req/s on a 4-core host), so a capacity gain can show.
// One 4-cell request costs about 12 ms of engine time, hence an SLO above
// the 10 ms a memo-served request would meet.
constexpr double kNominalRps = 80.0;
constexpr double kSloMs = 50.0;
constexpr double kSegmentS = 2.5;
constexpr double kLadderLo = 40.0;
constexpr double kLadderHi = 2000.0;
constexpr int kRungs = 52;
// Fewest rounds of the untraced run, whatever --seconds allows.
constexpr int kMinRounds = 5;
// Length of one probed ladder rung.
constexpr double kRungS = 1.5;
// Never-seen cells of one closed pass.
constexpr int kPassCells = 800;

std::vector<double> Ladder() {
  std::vector<double> rates;
  for (int i = 0; i < kRungs; ++i) {
    rates.push_back(kLadderLo * std::pow(kLadderHi / kLadderLo,
                                         static_cast<double>(i) / (kRungs - 1)));
  }
  return rates;
}

struct Content {
  int attr = 0;
  std::string value;
};

std::string ContentKey(int attr, const std::string& value) {
  return std::to_string(attr) + '\x1f' + value;
}

serve::CellQuery Query(const Content& c) {
  serve::CellQuery q;
  q.attr = c.attr;
  q.value = c.value;
  return q;
}

/// The request cell population of one run, derived from the hospital
/// tables alone.
class Corpus {
 public:
  Corpus(const datagen::DatasetPair& pair, uint64_t seed) : rng_(seed) {
    const data::Table& dirty = pair.dirty;
    n_attrs_ = dirty.num_columns();
    columns_.resize(static_cast<size_t>(n_attrs_));
    for (int r = 0; r < dirty.num_rows(); ++r) {
      for (int a = 0; a < n_attrs_; ++a) {
        const std::string& v = dirty.cell(r, a);
        columns_[static_cast<size_t>(a)].push_back(v);
        if (seen_.insert(ContentKey(a, v)).second) {
          contents_.push_back({a, v});
        }
      }
    }
  }

  int n_attrs() const { return n_attrs_; }
  const std::vector<Content>& contents() const { return contents_; }

  /// A table value of `attr`.
  std::string DrawColumnValue(int attr) {
    const auto& col = columns_[static_cast<size_t>(attr)];
    return col[rng_.UniformInt(col.size())];
  }

  /// A seeded mutation of a hospital value that no earlier cell had.
  Content DrawFresh(int attr = -1) {
    static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789 -";
    for (int attempt = 0;; ++attempt) {
      Content c;
      if (attr < 0) {
        c = contents_[rng_.UniformInt(contents_.size())];
      } else {
        c.attr = attr;
        c.value = DrawColumnValue(attr);
      }
      const int edits = 1 + static_cast<int>(rng_.UniformInt(2 + attempt / 8));
      for (int e = 0; e < edits; ++e) {
        const char ch = kAlphabet[rng_.UniformInt(sizeof(kAlphabet) - 1)];
        const uint64_t op = c.value.empty() ? 0 : rng_.UniformInt(3);
        const size_t pos = rng_.UniformInt(c.value.size() + (op == 0 ? 1 : 0));
        if (op == 0) {
          c.value.insert(c.value.begin() + static_cast<std::ptrdiff_t>(pos), ch);
        } else if (op == 1) {
          c.value[pos] = ch;
        } else {
          c.value.erase(pos, 1);
        }
      }
      if (!c.value.empty() && c.value.front() != ' ' &&
          seen_.insert(ContentKey(c.attr, c.value)).second) {
        return c;
      }
    }
  }

  Rng* rng() { return &rng_; }

 private:
  Rng rng_;
  int n_attrs_ = 0;
  std::vector<std::vector<std::string>> columns_;
  std::vector<Content> contents_;
  std::unordered_set<std::string> seen_;
};

/// What one op asked, for the correctness oracles.
struct OpMeta {
  bool delta = false;
  std::vector<Content> cells;  ///< detect
  int64_t row = 0;             ///< delta update
  int attr = 0;
  std::string value;
};

struct Phase {
  std::string name;
  int64_t base = 0;
  std::vector<Op> ops;
  std::vector<OpMeta> meta;
  PhaseResult result;
};

std::string DetectLine(int64_t id, const std::vector<Content>& cells) {
  std::string line = "{\"id\":\"" + std::to_string(id) +
                     "\",\"op\":\"detect\",\"model\":\"" + kModel +
                     "\",\"cells\":[";
  for (size_t i = 0; i < cells.size(); ++i) {
    line += i ? ",{\"attr\":" : "{\"attr\":";
    line += std::to_string(cells[i].attr);
    line += ",\"value\":";
    serve::AppendJsonString(cells[i].value, &line);
    line += "}";
  }
  return line + "]}";
}

std::string UpdateLine(int64_t id, int64_t row, int attr,
                       const std::string& value) {
  std::string line = "{\"id\":\"" + std::to_string(id) +
                     "\",\"op\":\"delta\",\"model\":\"" + kModel +
                     "\",\"deltas\":[{\"kind\":\"update\",\"row\":" +
                     std::to_string(row) + ",\"attr\":" +
                     std::to_string(attr) + ",\"value\":";
  serve::AppendJsonString(value, &line);
  return line + "}]}";
}

/// Owns phase ids so every request of a run has a unique id.
class PhaseFactory {
 public:
  explicit PhaseFactory(Corpus* corpus) : corpus_(corpus) {}

  Phase NewPhase(const std::string& name) {
    Phase p;
    p.name = name;
    p.base = next_base_;
    next_base_ += 10000000;
    return p;
  }

  void AddDetect(Phase* p, std::vector<Content> cells, double due_s) {
    OpMeta m;
    m.cells = std::move(cells);
    p->ops.push_back(
        {DetectLine(p->base + static_cast<int64_t>(p->ops.size()), m.cells),
         due_s, false});
    p->meta.push_back(std::move(m));
  }

  /// Open-loop mix at `rate` for `seconds`.
  Phase Open(const std::string& name, double rate, double seconds) {
    Phase p = NewPhase(name);
    const int64_t n = std::max<int64_t>(1, std::llround(rate * seconds));
    for (int64_t i = 0; i < n; ++i) {
      const double due = static_cast<double>(i) / rate;
      if (corpus_->rng()->Bernoulli(kDeltaShare)) {
        OpMeta m;
        m.delta = true;
        m.row = static_cast<int64_t>(corpus_->rng()->UniformInt(kSessionRows));
        m.attr =
            static_cast<int>(corpus_->rng()->UniformInt(corpus_->n_attrs()));
        m.value = corpus_->DrawFresh(m.attr).value;
        p.ops.push_back({UpdateLine(p.base + i, m.row, m.attr, m.value), due,
                         true});
        p.meta.push_back(std::move(m));
      } else {
        AddDetect(&p, RequestCells(), due);
      }
    }
    return p;
  }

  std::vector<Content> RequestCells() {
    std::vector<Content> cells;
    for (int c = 0; c < kCellsPerRequest; ++c) {
      cells.push_back(corpus_->DrawFresh());
    }
    return cells;
  }

 private:
  Corpus* corpus_;
  int64_t next_base_ = 10000000;
};

/// One set-up of the serving stack. Members are destroyed in reverse
/// order: connections close before the server shuts down.
struct Stack {
  datagen::DatasetPair pair;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<PhaseFactory> factory;
  serve::ModelRegistry registry;
  std::shared_ptr<const serve::LoadedDetector> detector;
  std::unique_ptr<serve::Server> server;
  LoadGen gen;
  double fit_s = 0.0;
  int epochs = 0;
  int64_t train_cells = 0;
  double save_s = 0.0;
  double load_s = 0.0;
  std::vector<stream::Delta> inserts;  ///< replayed, in order.
  Phase insert_phase;
};

bool StatusOk(const std::string& line) {
  return line.find("\"status\":\"OK\"") != std::string::npos;
}

std::string BundleDir(const Args& args) {
  return args.workdir + "/bundle-" + args.workload + "-" +
         std::to_string(args.seed);
}

std::unique_ptr<Stack> SetUp(const Args& args, Report* report) {
  auto stack = std::make_unique<Stack>();
  datagen::GenOptions gen;
  gen.scale = kHospitalScale;
  gen.seed = DeriveSeed(args.seed, 0x5E4E);
  stack->pair = datagen::MakeHospital(gen);
  stack->corpus = std::make_unique<Corpus>(stack->pair,
                                           DeriveSeed(args.seed, 0xC0A9));
  stack->factory = std::make_unique<PhaseFactory>(stack->corpus.get());

  core::DetectorOptions options;
  options.model = "etsb";
  options.sampler = "diverset";
  options.n_label_tuples = 20;
  options.trainer.epochs = kServeEpochs;
  core::TrainedDetector trained;
  auto run = core::ErrorDetector(options).Run(stack->pair.dirty,
                                               stack->pair.clean, &trained);
  report->Check(run.ok(), "serve set-up training");
  if (!run.ok()) return nullptr;
  stack->fit_s = run->history.train_seconds;
  stack->epochs = static_cast<int>(run->history.epochs.size());
  stack->train_cells = run->train_cells;

  const std::string dir = BundleDir(args);
  std::filesystem::remove_all(dir);
  auto t0 = Clock::now();
  const Status saved = serve::SaveDetectorBundle(trained, dir);
  stack->save_s = SecondsSince(t0);
  report->Check(saved.ok(), "SaveDetectorBundle " + saved.ToString());
  t0 = Clock::now();
  auto loaded = serve::LoadDetectorBundle(dir);
  stack->load_s = SecondsSince(t0);
  report->Check(loaded.ok(),
                "LoadDetectorBundle " + loaded.status().ToString());
  if (!saved.ok() || !loaded.ok()) return nullptr;
  (void)stack->registry.Add(kModel, std::move(*loaded));
  stack->detector = stack->registry.Get(kModel);

  serve::ServerOptions server_options;
  server_options.mode = serve::ServeMode::kReactor;
  server_options.reactor_threads = 1;
  stack->server =
      std::make_unique<serve::Server>(&stack->registry, server_options);
  const Status started = stack->server->Start();
  report->Check(started.ok(), "Server::Start");
  std::string error;
  const bool connected =
      started.ok() &&
      stack->gen.Connect(stack->server->port(), kConnections, &error);
  report->Check(connected, "connect load generator " + error);
  if (!connected) return nullptr;

  // Replay the first rows into the model's stream session as inserts.
  Phase& ins = stack->insert_phase;
  ins = stack->factory->NewPhase("session inserts");
  for (int r = 0; r < kSessionRows; r += kInsertsPerRequest) {
    std::string line = "{\"id\":\"" +
                       std::to_string(ins.base + static_cast<int64_t>(
                                                     ins.ops.size())) +
                       "\",\"op\":\"delta\",\"model\":\"" + kModel +
                       "\",\"deltas\":[";
    for (int k = r; k < std::min(kSessionRows, r + kInsertsPerRequest); ++k) {
      stream::Delta d;
      d.kind = stream::DeltaKind::kInsert;
      d.row_id = k;
      d.values = stack->pair.dirty.row(k);
      line += k > r ? ",{\"kind\":\"insert\",\"row\":"
                    : "{\"kind\":\"insert\",\"row\":";
      line += std::to_string(k) + ",\"values\":[";
      for (size_t a = 0; a < d.values.size(); ++a) {
        if (a) line += ",";
        serve::AppendJsonString(d.values[a], &line);
      }
      line += "]}";
      stack->inserts.push_back(std::move(d));
    }
    ins.ops.push_back({line + "]}", 0.0, true});
    ins.meta.push_back(OpMeta{});
  }
  ins.result = stack->gen.Run(ins.ops, ins.base, false, 1, kDrainS);

  return stack;
}

/// Latencies of the answered detect (or delta) ops of a phase.
std::vector<double> Latencies(const Phase& p, bool delta) {
  std::vector<double> out;
  for (size_t i = 0; i < p.ops.size(); ++i) {
    if (p.ops[i].delta == delta && p.result.outcomes[i].answered) {
      out.push_back(p.result.outcomes[i].latency_ms);
    }
  }
  return out;
}

/// Tail latency of a phase that rare whole-process stalls (a descheduled
/// thread or vCPU stalls every request in flight for several ms) cannot
/// dominate: the `q` quantile of the detect latencies in each window of
/// `window_s` scheduled seconds, then the median over the windows.
double WindowedQuantile(const Phase& p, double q, double window_s) {
  std::map<int64_t, std::vector<double>> windows;
  for (size_t i = 0; i < p.ops.size(); ++i) {
    const OpOutcome& o = p.result.outcomes[i];
    if (!p.ops[i].delta && o.answered) {
      windows[static_cast<int64_t>(p.ops[i].due_s / window_s)].push_back(
          o.latency_ms);
    }
  }
  std::vector<double> per_window;
  for (auto& [w, values] : windows) per_window.push_back(Quantile(values, q));
  return Median(per_window);
}

/// Requests of a phase that were not answered OK (shed, errors, lost).
int64_t NotOk(const Phase& p) {
  int64_t bad = p.result.unmatched;
  for (const OpOutcome& o : p.result.outcomes) {
    if (!o.answered || !StatusOk(o.response)) ++bad;
  }
  return bad;
}

/// A rung counts towards serve.max_rps_at_slo when the detect p99 of the
/// whole rung meets the SLO, nothing failed, the backlog at the last send is
/// at most one SLO's worth of arrivals, and the generator's p99 lateness
/// over the whole rung stays within the SLO.
bool Judge(const Phase& p, double rate, double slo_ms) {
  const double backlog_limit = std::max(8.0, rate * slo_ms / 1000.0);
  std::vector<double> late;
  for (const OpOutcome& o : p.result.outcomes) late.push_back(o.late_ms);
  return Quantile(Latencies(p, false), 0.99) <= slo_ms && NotOk(p) == 0 &&
         static_cast<double>(p.result.backlog_end) <= backlog_limit &&
         Quantile(late, 0.99) <= slo_ms;
}

void PrintPhase(const Phase& p, double rate) {
  const auto lat = Latencies(p, false);
  std::cout << p.name << ": rate " << rate << " req/s, ops " << p.ops.size()
            << ", detect p50 " << Quantile(lat, 0.5) << " ms p99 "
            << Quantile(lat, 0.99) << " ms, gen.lag_ms "
            << p.result.lag_ms << ", gen.backlog_end "
            << p.result.backlog_end << ", not ok " << NotOk(p) << std::endl;
}

/// Served `"error":` flags of a detect response, in order.
std::vector<bool> ErrorFlags(const std::string& line) {
  std::vector<bool> flags;
  size_t pos = 0;
  while ((pos = line.find("\"error\":", pos)) != std::string::npos) {
    pos += 8;
    flags.push_back(line.compare(pos, 4, "true") == 0);
  }
  return flags;
}

/// Version of the first verdict of a delta response (0 when absent).
uint64_t FirstVersion(const std::string& line) {
  const size_t pos = line.find("\"version\":");
  return pos == std::string::npos
             ? 0
             : std::strtoull(line.c_str() + pos + 10, nullptr, 10);
}

/// One closed pass over every cell of the dirty table (row-major, 4 cells
/// per request); returns the phase with its wall time.
Phase TablePass(Stack* stack, const std::string& name) {
  Phase p = stack->factory->NewPhase(name);
  const data::Table& dirty = stack->pair.dirty;
  std::vector<Content> cells;
  for (int r = 0; r < dirty.num_rows(); ++r) {
    for (int a = 0; a < dirty.num_columns(); ++a) {
      cells.push_back({a, dirty.cell(r, a)});
      if (static_cast<int>(cells.size()) == kCellsPerRequest) {
        stack->factory->AddDetect(&p, std::move(cells), 0.0);
        cells.clear();
      }
    }
  }
  if (!cells.empty()) stack->factory->AddDetect(&p, std::move(cells), 0.0);
  p.result = stack->gen.Run(p.ops, p.base, false, kClosedInflight, kDrainS);
  return p;
}

/// One closed pass over kPassCells never-seen cells with one request in
/// flight per connection. Deeper pipelining would keep the engine on full
/// 64-cell batches, whose per-cell time swung by more than the 0.25 bound
/// between runs on a shared host (memory-bound matmuls); four synchronous
/// clients keep batches at the 16-row quantum, like the nominal traffic.
Phase FreshPass(Stack* stack, const std::string& name) {
  Phase p = stack->factory->NewPhase(name);
  for (int i = 0; i < kPassCells / kCellsPerRequest; ++i) {
    stack->factory->AddDetect(&p, stack->factory->RequestCells(), 0.0);
  }
  p.result = stack->gen.Run(p.ops, p.base, false, kConnections, kDrainS);
  return p;
}

/// Test-style F1 of a table pass's served verdicts against the clean
/// table (a cell is an error when its trimmed dirty value differs).
double PassF1(const Stack& stack, const Phase& pass) {
  const data::Table& dirty = stack.pair.dirty;
  const data::Table& clean = stack.pair.clean;
  int64_t tp = 0, fp = 0, fn = 0;
  int64_t cell = 0;
  const int n_attrs = dirty.num_columns();
  for (size_t i = 0; i < pass.ops.size(); ++i) {
    const std::vector<bool> flags = ErrorFlags(pass.result.outcomes[i].response);
    for (size_t k = 0; k < pass.meta[i].cells.size(); ++k, ++cell) {
      const int r = static_cast<int>(cell / n_attrs);
      const int a = static_cast<int>(cell % n_attrs);
      const bool truth = TrimLeft(dirty.cell(r, a)) != TrimLeft(clean.cell(r, a));
      const bool flagged = k < flags.size() && flags[k];
      tp += flagged && truth;
      fp += flagged && !truth;
      fn += !flagged && truth;
    }
  }
  return tp == 0 ? 0.0
                 : 2.0 * static_cast<double>(tp) /
                       static_cast<double>(2 * tp + fp + fn);
}

/// Checks served detect lines against an unmemoized engine sweep
/// (InferenceEngine::PredictProbs over EncodeQueries, memoize off), caching
/// the expected p_error per content across phases.
class DetectOracle {
 public:
  explicit DetectOracle(const serve::LoadedDetector& detector)
      : detector_(detector) {}

  /// Compares every detect line of `p`; non-OK or missing answers count as
  /// failures only when `strict`. Then drops the phase's detect payloads
  /// (request lines, cells, responses), keeping its deltas for the session
  /// oracle.
  void CheckAndCompact(Phase* p, bool strict, Report* report) {
    std::vector<serve::CellQuery> queries;
    std::vector<std::string> keys;
    for (size_t i = 0; i < p->ops.size(); ++i) {
      if (p->ops[i].delta) continue;
      for (const Content& c : p->meta[i].cells) {
        std::string key = ContentKey(c.attr, c.value);
        if (expected_.count(key) == 0) {
          expected_[key] = 0.0f;
          queries.push_back(Query(c));
          keys.push_back(std::move(key));
        }
      }
    }
    if (!queries.empty()) {
      auto encoded = detector_.EncodeQueries(queries);
      report->Check(encoded.ok(), "EncodeQueries for the oracle");
      if (!encoded.ok()) return;
      // One thread: worker threads leave their malloc arenas and scratch
      // resident, which put about 58 MiB of the oracle's own memory, in
      // steps that varied from run to run, into peak_rss_mib.
      core::InferenceOptions options;
      options.memoize = false;
      options.threads = 1;
      core::InferenceEngine engine(detector_.model(), options);
      std::vector<float> probs;
      engine.PredictProbs(*encoded, {}, &probs);
      for (size_t k = 0; k < keys.size(); ++k) expected_[keys[k]] = probs[k];
    }
    int64_t n = 0, bad = 0;
    for (size_t i = 0; i < p->ops.size(); ++i) {
      if (p->ops[i].delta) continue;
      OpOutcome& o = p->result.outcomes[i];
      if (!o.answered || !StatusOk(o.response)) {
        n += strict;
        bad += strict;
      } else {
        std::vector<serve::CellVerdict> verdicts;
        for (const Content& c : p->meta[i].cells) {
          const float prob = expected_.at(ContentKey(c.attr, c.value));
          verdicts.push_back({prob, prob > 0.5f});
        }
        ++n;
        bad += serve::OkDetectResponse(
                   std::to_string(p->base + static_cast<int64_t>(i)),
                   verdicts) != o.response;
      }
      std::string().swap(o.response);
      std::string().swap(p->ops[i].line);
      std::vector<Content>().swap(p->meta[i].cells);
    }
    if (strict) bad += p->result.unmatched;
    report->Count(n, bad,
                  p->name + ": detect lines equal the unmemoized engine");
  }

 private:
  const serve::LoadedDetector& detector_;
  std::unordered_map<std::string, float> expected_;
};

/// Session oracle: replays the server's deltas (set-up inserts, then every
/// answered update in version order) into a shadow TableSession, compares
/// each response, and checks MaterializedVerdicts() == DetectAll().
/// Returns the in-process TableSession::Update latencies in microseconds,
/// recorded as spans under `parent` when `tracer` is set.
std::vector<double> CheckSession(const Stack& stack,
                                 const std::vector<const Phase*>& phases,
                                 Tracer* tracer, int64_t parent,
                                 stream::SessionStats* update_stats,
                                 Report* report) {
  std::vector<double> update_us;
  auto created = stream::TableSession::Create(stack.detector);
  report->Check(created.ok(), "shadow TableSession::Create");
  if (!created.ok()) return update_us;
  stream::TableSession& session = **created;

  // Inserts went out one request at a time, so their order is known.
  const Phase& ins = stack.insert_phase;
  size_t next_insert = 0;
  int64_t bad = 0;
  for (size_t i = 0; i < ins.ops.size(); ++i) {
    std::vector<serve::DeltaCellVerdict> verdicts;
    int64_t applied = 0;
    for (int k = 0; k < kInsertsPerRequest &&
                    next_insert < stack.inserts.size();
         ++k, ++next_insert) {
      const stream::Delta& d = stack.inserts[next_insert];
      std::vector<std::pair<int, stream::CellVerdict>> affected;
      if (!session.Apply(d, &affected).ok()) ++bad;
      ++applied;
      for (const auto& [attr, v] : affected) verdicts.push_back({d.row_id, attr, v});
    }
    const std::string expected = serve::DeltaResponse(
        std::to_string(ins.base + static_cast<int64_t>(i)), applied, verdicts,
        session.stats().drift_alarms);
    bad += expected != ins.result.outcomes[i].response;
  }
  report->Count(static_cast<int64_t>(ins.ops.size()), bad,
                "session inserts equal the shadow session");

  struct Answered {
    uint64_t version;
    const Phase* phase;
    size_t op;
  };
  std::vector<Answered> answered;
  for (const Phase* p : phases) {
    for (size_t i = 0; i < p->ops.size(); ++i) {
      const OpOutcome& o = p->result.outcomes[i];
      if (p->ops[i].delta && o.answered && StatusOk(o.response)) {
        answered.push_back({FirstVersion(o.response), p, i});
      }
    }
  }
  std::sort(answered.begin(), answered.end(),
            [](const Answered& a, const Answered& b) {
              return a.version < b.version;
            });
  const stream::SessionStats before = session.stats();
  bad = 0;
  uint64_t expected_version = before.version + 1;
  for (const Answered& a : answered) {
    const OpMeta& m = a.phase->meta[a.op];
    if (a.version != expected_version) {
      ++bad;  // a delta the server applied but never answered
      break;
    }
    ++expected_version;
    std::vector<std::pair<int, stream::CellVerdict>> affected;
    const auto t0 = Clock::now();
    const Status st = session.Update(m.row, m.attr, m.value, &affected);
    const auto t1 = Clock::now();
    update_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    if (tracer != nullptr) {
      tracer->Record("session", "TableSession::Update", t0, t1, parent,
                     a.phase->base + static_cast<int64_t>(a.op));
    }
    std::vector<serve::DeltaCellVerdict> verdicts;
    for (const auto& [attr, v] : affected) verdicts.push_back({m.row, attr, v});
    // The drift-alarm total is read after the apply without the session
    // lock held across both, so only the verdict part is exact.
    std::string expected = serve::DeltaResponse(
        std::to_string(a.phase->base + static_cast<int64_t>(a.op)), 1,
        verdicts, 0);
    expected.resize(expected.rfind("\"drift_alarms\":"));
    const std::string& got = a.phase->result.outcomes[a.op].response;
    bad += !st.ok() || got.compare(0, expected.size(), expected) != 0;
  }
  report->Count(static_cast<int64_t>(std::max<size_t>(1, answered.size())),
                bad, "delta updates equal the shadow session");
  const stream::SessionStats after = session.stats();
  update_stats->deltas = after.deltas - before.deltas;
  update_stats->cells_scored = after.cells_scored - before.cells_scored;
  update_stats->memo_hits = after.memo_hits - before.memo_hits;

  auto all = session.DetectAll();
  report->Check(all.ok() && *all == session.MaterializedVerdicts(),
                "MaterializedVerdicts() equals DetectAll()");
  return update_us;
}

struct ServeRun {
  std::unique_ptr<Stack> stack;
  double setup_s = 0.0;
};

ServeRun SetUpRepeated(const Args& args, Report* report) {
  ServeRun run;
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    run.stack.reset();  // shut the previous stack down first
    const auto t0 = Clock::now();
    run.stack = SetUp(args, report);
    times.push_back(SecondsSince(t0));
    if (run.stack == nullptr) return run;
  }
  run.setup_s = Median(times);
  std::cout << args.workload << " set-up: median " << run.setup_s << " s"
            << std::endl;
  return run;
}

/// Every delta of a phase at a nominal rate must be answered OK.
void CheckDeltasAnswered(const Phase& p, Report* report) {
  int64_t n = 0, bad = 0;
  for (size_t i = 0; i < p.ops.size(); ++i) {
    if (!p.ops[i].delta) continue;
    ++n;
    bad += !p.result.outcomes[i].answered ||
           !StatusOk(p.result.outcomes[i].response);
  }
  report->Count(n, bad, p.name + ": deltas answered OK");
}

/// Phases already checked by the detect oracle (compacted); those with
/// deltas are kept for the session oracle.
class DonePhases {
 public:
  explicit DonePhases(const serve::LoadedDetector& detector)
      : oracle_(detector) {}

  /// Checks `phase` against the detect oracle and keeps it when it holds
  /// deltas (the session oracle needs nothing else).
  void Finish(Phase phase, bool strict, Report* report) {
    oracle_.CheckAndCompact(&phase, strict, report);
    const bool deltas = std::any_of(phase.ops.begin(), phase.ops.end(),
                                    [](const Op& op) { return op.delta; });
    if (deltas) done_.push_back(std::make_unique<Phase>(std::move(phase)));
  }

  std::vector<const Phase*> phases() const {
    std::vector<const Phase*> out;
    for (const auto& p : done_) out.push_back(p.get());
    return out;
  }

 private:
  DetectOracle oracle_;
  std::vector<std::unique_ptr<Phase>> done_;
};

/// serve.max_rps_at_slo: binary search over the fixed ladder,
/// `rung_s` seconds per probed rung.
double MaxRpsAtSlo(Stack* stack, double rung_s, DonePhases* done,
                   Report* report) {
  const std::vector<double> ladder = Ladder();
  int lo = -1;
  int hi = static_cast<int>(ladder.size());
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const double rate = ladder[static_cast<size_t>(mid)];
    Phase rung = stack->factory->Open("rung " + std::to_string(mid), rate,
                                      rung_s);
    rung.result = stack->gen.Run(rung.ops, rung.base, true, 0, kDrainS);
    PrintPhase(rung, rate);
    if (Judge(rung, rate, kSloMs)) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (rung.result.lost > 0 || rung.result.unmatched > 0) {
      // Late responses must not leak into the next probe.
      std::string error;
      stack->gen.Connect(stack->server->port(), kConnections, &error);
    }
    // Above capacity a rung may shed; only wrong answers are failures.
    done->Finish(std::move(rung), false, report);
  }
  const double max_rps =
      lo >= 0 ? ladder[static_cast<size_t>(lo)] : kLadderLo / 2.0;
  std::cout << "max_rps_at_slo " << max_rps << std::endl;
  return max_rps;
}

void Untraced(const Args& args, Report* report) {
  ServeRun run = SetUpRepeated(args, report);
  if (run.stack == nullptr) return;
  Stack& stack = *run.stack;
  report->Set("setup_s", run.setup_s);
  DonePhases done(*stack.detector);

  // Rounds of one closed pass (detect_s) and one nominal open-loop segment
  // (detect_p50_ms) until --seconds is spent.
  std::vector<double> pass_s;
  std::vector<double> segment_p50;
  const auto t_measure = Clock::now();
  for (int round = 0;; ++round) {
    const double elapsed = SecondsSince(t_measure);
    if (round >= kMinRounds && elapsed * (round + 1) / round > args.seconds) {
      break;
    }
    Phase pass = FreshPass(&stack, "pass " + std::to_string(round));
    pass_s.push_back(pass.result.wall_s);
    done.Finish(std::move(pass), true, report);
    Phase segment = stack.factory->Open("nominal " + std::to_string(round),
                                        kNominalRps, kSegmentS);
    segment.result =
        stack.gen.Run(segment.ops, segment.base, true, 0, kDrainS);
    PrintPhase(segment, kNominalRps);
    segment_p50.push_back(Quantile(Latencies(segment, false), 0.5));
    CheckDeltasAnswered(segment, report);
    done.Finish(std::move(segment), true, report);
  }
  // Pass times can be bimodal round to round (a pass lands in a fast or a
  // slow phase of the shared host), so their median jumps between the modes
  // as their mix shifts; the mean over all passes moves with the mix
  // smoothly.
  const double mean_pass_s =
      std::accumulate(pass_s.begin(), pass_s.end(), 0.0) /
      static_cast<double>(pass_s.size());
  std::cout << args.workload << ": " << pass_s.size() << " passes, mean "
            << mean_pass_s << " s (quartiles " << Quantile(pass_s, 0.25)
            << ", " << Median(pass_s) << ", " << Quantile(pass_s, 0.75)
            << "); " << segment_p50.size()
            << " nominal segments, median p50 " << Median(segment_p50)
            << " ms" << std::endl;
  report->Set("detect_s", mean_pass_s);
  report->Set("detect_p50_ms", Median(segment_p50));
  report->Set("peak_rss_mib", PeakRssMib());

  stream::SessionStats update_stats;
  CheckSession(stack, done.phases(), nullptr, -1, &update_stats, report);
}

void Traced(const Args& args, Report* report) {
  Tracer tracer;
  ServeRun run = SetUpRepeated(args, report);
  if (run.stack == nullptr) return;
  Stack& stack = *run.stack;
  const serve::LoadedDetector& detector = *stack.detector;

  report->Set("trainer.fit_s", stack.fit_s);
  report->Set("trainer.epoch_s",
      stack.epochs > 0 ? stack.fit_s / stack.epochs : 0.0);
  report->Set("trainer.cells_per_s",
      stack.fit_s > 0 ? static_cast<double>(stack.train_cells) *
                            stack.epochs / stack.fit_s
                      : 0.0);
  report->Set("bundle.save_s", stack.save_s);
  report->Set("bundle.load_s", stack.load_s);

  // serve.max_rps_at_slo first, untraced: a layer-by-layer account of an
  // overloaded server is not what the trace is for.
  DonePhases done(detector);
  report->Set("serve.max_rps_at_slo",
              MaxRpsAtSlo(&stack, kRungS, &done, report));

  Phase pass = TablePass(&stack, "table pass");
  report->Set("quality.f1", PassF1(stack, pass));
  const double nominal_s = 0.2 * args.seconds;

  // Untraced baseline for the overhead, then the traced part.
  Phase plain = stack.factory->Open("nominal (untraced)", kNominalRps,
                                    nominal_s);
  plain.result = stack.gen.Run(plain.ops, plain.base, true, 0, kDrainS);
  PrintPhase(plain, kNominalRps);

  const int64_t root = tracer.Begin("bench", args.workload + " traced");
  auto stats_before = stack.server->ModelStats(kModel);
  const int64_t nominal_span = tracer.Begin("gen", "nominal", root);
  Phase nominal = stack.factory->Open("nominal", kNominalRps, nominal_s);
  nominal.result = stack.gen.Run(nominal.ops, nominal.base, true, 0, kDrainS,
                                 &tracer, nominal_span);
  tracer.End(nominal_span);
  auto stats_after = stack.server->ModelStats(kModel);
  PrintPhase(nominal, kNominalRps);
  const double socket_p50 = Quantile(Latencies(nominal, false), 0.5);
  const double plain_p50 = Quantile(Latencies(plain, false), 0.5);
  report->Set("trace.overhead_frac",
      plain_p50 > 0 ? socket_p50 / plain_p50 - 1.0 : 0.0);
  report->Set("serve.detect_p90_ms", WindowedQuantile(nominal, 0.9, kWindowS));
  report->Set("serve.detect_p99_ms", WindowedQuantile(nominal, 0.99, kWindowS));
  const auto delta_lat = Latencies(nominal, true);
  report->Set("serve.delta_p50_ms", Quantile(delta_lat, 0.5));
  report->Set("serve.delta_p99_ms", Quantile(delta_lat, 0.99));
  report->Set("gen.lag_ms", std::max(plain.result.lag_ms,
                                     nominal.result.lag_ms));
  report->Set("gen.backlog_end",
      static_cast<double>(std::max(plain.result.backlog_end,
                                   nominal.result.backlog_end)));
  report->Check(stats_before.ok() && stats_after.ok(), "Server::ModelStats");
  if (stats_before.ok() && stats_after.ok()) {
    const int64_t cells = stats_after->cells - stats_before->cells;
    report->Set("memo.hit_frac",
        cells > 0 ? static_cast<double>(stats_after->memo_hits -
                                        stats_before->memo_hits) /
                        static_cast<double>(cells)
                  : 0.0);
    report->Set("memo.bytes", static_cast<double>(stats_after->memo_bytes));
  }

  // The request cells of the nominal phase, encoded (data layer).
  std::vector<serve::CellQuery> queries;
  for (size_t i = 0; i < nominal.ops.size(); ++i) {
    for (const Content& c : nominal.meta[i].cells) queries.push_back(Query(c));
  }
  const int64_t encode_span = tracer.Begin("data", "EncodeQueries", root);
  auto encoded = detector.EncodeQueries(queries);
  tracer.End(encode_span);
  report->Check(encoded.ok(), "EncodeQueries");
  if (!encoded.ok()) return;
  report->Set("data.encode_us_per_cell",
      tracer.Seconds(encode_span) * 1e6 /
          std::max<double>(1.0, static_cast<double>(queries.size())));

  // batcher: MicroBatcher::Detect's path in process, same request stream
  // and schedule, no transport.
  double batcher_p50 = 0.0;
  {
    serve::MicroBatcher batcher(detector, serve::BatcherOptions{});
    const int64_t span = tracer.Begin("bench", "MicroBatcher replay", root);
    const serve::BatcherStats before = batcher.stats();
    std::mutex mu;
    std::condition_variable cv;
    int64_t pending = 0;
    int64_t failed = 0;
    std::vector<double> lat;
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    for (size_t i = 0; i < nominal.ops.size(); ++i) {
      if (nominal.ops[i].delta) continue;
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       nominal.ops[i].due_s));
      std::this_thread::sleep_until(due);
      std::vector<serve::CellQuery> cells;
      for (const Content& c : nominal.meta[i].cells) cells.push_back(Query(c));
      {
        std::lock_guard<std::mutex> lock(mu);
        ++pending;
      }
      const int64_t req = nominal.base + static_cast<int64_t>(i);
      batcher.Submit(cells, [&, due, req](const Status& st,
                                          const std::vector<serve::CellVerdict>&) {
        const auto done = Clock::now();
        tracer.Record("batcher", "MicroBatcher::Detect", due, done, span, req,
                      1);
        std::lock_guard<std::mutex> lock(mu);
        lat.push_back(
            std::chrono::duration<double, std::milli>(done - due).count());
        failed += !st.ok();
        --pending;
        cv.notify_all();
      });
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return pending == 0; });
    }
    const double wall = SecondsSince(start);
    const serve::BatcherStats after = batcher.stats();
    batcher.Stop();
    tracer.End(span);
    report->Count(static_cast<int64_t>(lat.size()), failed,
                  "in-process batcher requests");
    const int64_t cells = after.cells - before.cells;
    const int64_t batches = after.batches - before.batches;
    const int64_t requests = after.requests - before.requests;
    const int64_t shed = after.shed_requests - before.shed_requests;
    batcher_p50 = Quantile(lat, 0.5);
    report->Set("batcher.detect_p50_ms", batcher_p50);
    report->Set("batcher.detect_p99_ms", Quantile(lat, 0.99));
    report->Set("batcher.batch_cells_mean",
        batches > 0 ? static_cast<double>(cells) / batches : 0.0);
    report->Set("batcher.engine_busy_frac",
        wall > 0 ? (after.batch_seconds - before.batch_seconds) / wall : 0.0);
    report->Set("batcher.memo_hit_frac",
        cells > 0 ? static_cast<double>(after.memo_hits - before.memo_hits) /
                        static_cast<double>(cells)
                  : 0.0);
    report->Set("batcher.shed_frac",
        requests + shed > 0 ? static_cast<double>(shed) /
                                  static_cast<double>(requests + shed)
                            : 0.0);
  }

  // protocol: ParseRequest over the nominal lines; Server::HandleRequest
  // in process on fresh detect requests.
  {
    const int64_t span = tracer.Begin("bench", "ParseRequest", root);
    std::vector<double> parse_us;
    for (size_t i = 0; i < nominal.ops.size(); ++i) {
      const auto t0 = Clock::now();
      auto parsed = serve::ParseRequest(nominal.ops[i].line);
      const auto t1 = Clock::now();
      tracer.Record("protocol", "ParseRequest", t0, t1, span,
                    nominal.base + static_cast<int64_t>(i));
      parse_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      if (!parsed.ok()) report->Check(false, "ParseRequest");
    }
    tracer.End(span);
    report->Set("protocol.parse_us", Median(parse_us));
  }
  Phase handled = stack.factory->NewPhase("Server::HandleRequest");
  {
    const int64_t span = tracer.Begin("bench", "HandleRequest", root);
    std::vector<double> handle_ms;
    for (int i = 0; i < kHandleRequests; ++i) {
      stack.factory->AddDetect(&handled, stack.factory->RequestCells(), 0.0);
      auto parsed = serve::ParseRequest(handled.ops.back().line);
      OpOutcome out;
      if (parsed.ok()) {
        const auto t0 = Clock::now();
        out.response = stack.server->HandleRequest(*parsed);
        const auto t1 = Clock::now();
        tracer.Record("protocol", "Server::HandleRequest", t0, t1, span,
                      handled.base + i);
        handle_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        out.answered = true;
      }
      handled.result.outcomes.push_back(std::move(out));
    }
    tracer.End(span);
    report->Set("server.handle_p50_ms", Median(handle_ms));
    // Sequential HandleRequest calls each wait out the whole batching
    // window, so the like-for-like in-process baseline of the socket p50 is
    // the batcher replay at the same schedule.
    report->Set("transport.wire_ms", socket_p50 - batcher_p50);
  }

  // memo: ContentMemo::Lookup on the table's distinct contents.
  {
    std::vector<serve::CellQuery> table;
    for (const Content& c : stack.corpus->contents()) {
      table.push_back(Query(c));
    }
    auto ds = detector.EncodeQueries(table);
    report->Check(ds.ok(), "EncodeQueries of the table contents");
    if (ds.ok()) {
      core::ContentMemo memo;
      for (int64_t i = 0; i < ds->num_cells(); ++i) memo.Insert(*ds, i, 0.25f);
      std::vector<float> p(static_cast<size_t>(ds->num_cells()));
      std::vector<uint8_t> hit(static_cast<size_t>(ds->num_cells()));
      const int64_t span = tracer.Begin("memo", "ContentMemo::Lookup", root);
      int64_t probed = 0, hits = 0;
      const auto t0 = Clock::now();
      while (SecondsSince(t0) < 0.2) {
        hits += memo.Lookup(*ds, &p, &hit);
        probed += ds->num_cells();
      }
      tracer.End(span);
      report->Check(hits == probed, "memo probes of inserted contents hit");
      report->Set("memo.lookup_ns_per_cell",
          tracer.Seconds(span) * 1e9 / std::max<double>(1.0, probed));
    }
  }

  {
    const int64_t span = tracer.Begin("bench", "model probe", root);
    MeasureModel(detector.model(), *encoded, &tracer, span, report);
    tracer.End(span);
  }

  // The shadow session's updates, timed in process; then the detect oracle
  // (the benchmark's own check, outside the traced wall).
  const int64_t session_span = tracer.Begin("bench", "shadow session", root);
  std::vector<const Phase*> phases = done.phases();
  for (const Phase* p : {&pass, &plain, &nominal, &handled}) {
    phases.push_back(p);
  }
  stream::SessionStats update_stats;
  const std::vector<double> update_us = CheckSession(
      stack, phases, &tracer, session_span, &update_stats, report);
  tracer.End(session_span);
  tracer.End(root);
  CheckDeltasAnswered(plain, report);
  CheckDeltasAnswered(nominal, report);
  for (Phase* p : {&pass, &plain, &nominal, &handled}) {
    done.Finish(std::move(*p), true, report);
  }
  report->Set("session.update_p50_us", Quantile(update_us, 0.5));
  report->Set("session.update_p99_us", Quantile(update_us, 0.99));
  report->Set("session.cells_scored_per_delta",
      update_stats.deltas > 0 ? static_cast<double>(update_stats.cells_scored) /
                                    static_cast<double>(update_stats.deltas)
                              : 0.0);
  report->Set("session.memo_hit_frac",
      update_stats.cells_scored > 0
          ? static_cast<double>(update_stats.memo_hits) /
                static_cast<double>(update_stats.cells_scored)
          : 0.0);

  const double wall = tracer.Seconds(root);
  report->Set("trace.coverage", tracer.Coverage(wall));
  const std::string path = args.workdir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  report->Check(tracer.WriteChromeTrace(path), "write Chrome trace");
}

}  // namespace

void RunServe(const Args& args, Report* report) {
  if (args.trace) {
    Traced(args, report);
  } else {
    Untraced(args, report);
  }
  std::filesystem::remove_all(BundleDir(args));
}

}  // namespace perfbench
