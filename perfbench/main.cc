// End-to-end benchmark of the starmagic engine.
//
//   perfbench --workload <olap_views|oltp_mixed|recursive_reach> --seed <n>
//             --seconds <s> --trace <0|1> [--git-sha <sha>] [--trace-out <file>]
//
// One client drives the embedded Database API as a closed loop: each
// statement is sent after the previous one returned. Every statement is
// generated from the seed and every read is checked against the plain-C++
// model of workloads.h. The last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer split, taken from spans this file records around calls into
// each engine module (see README.md for what each one should move).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "obs/decision_audit.h"
#include "plan/plan_cache.h"
#include "qgm/builder.h"
#include "sql/parser.h"
#include "speed_reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

using starmagic::Database;
using starmagic::ExecStats;
using starmagic::QueryOptions;
using starmagic::QueryResult;
using starmagic::Result;
using starmagic::Status;
using starmagic::Tracer;
using Clock = std::chrono::steady_clock;

// Set-up is repeated on fresh databases and its median reported. The count
// is fixed, not time-based, so every run measures a database built after
// the same allocation history.
constexpr int kSetupRuns = 7;
// Enough reads that the p90 has at least ten samples beyond it.
constexpr int64_t kMinReads = 100;
// Statements run, checked and discarded before the timed loop, so caches,
// allocator and plan cache are warm when timing starts.
constexpr double kWarmupSeconds = 2;
// Stop even short of kMinReads, well inside the 180 s a run may take.
constexpr double kHardStopSeconds = 120;
// Seconds of loop time between two samples of the speed reference, and the
// samples on each side of a segment whose median gives its speed.
constexpr double kReferenceIntervalSeconds = 0.25;
constexpr size_t kReferenceNeighbours = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
      have_trace = true;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_trace && args->seconds > 0 &&
         !args->workload.empty();
}

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// Runs `fn` inside a span named `name` (recorded only when `tracer` is set)
// and returns its wall time in microseconds.
template <typename F>
double Timed(Tracer* tracer, const char* name, F&& fn) {
  auto start = Clock::now();
  {
    starmagic::SpanScope span(tracer, name, "perfbench");
    fn();
  }
  return Micros(start, Clock::now());
}

// The engine's result rows in the oracle's format, sorted.
Rows ToRows(const starmagic::Table& table) {
  Rows rows;
  rows.reserve(table.rows().size());
  for (const starmagic::Row& row : table.rows()) {
    std::vector<Cell> cells;
    for (const starmagic::Value& v : row) {
      if (v.is_numeric()) {
        cells.emplace_back(v.AsDouble());
      } else if (v.kind() == starmagic::ValueKind::kString) {
        cells.emplace_back(v.string_value());
      } else {
        cells.emplace_back(v.ToString());
      }
    }
    rows.push_back(std::move(cells));
  }
  SortRows(&rows);
  return rows;
}

// Nearest-rank percentile, q in (0, 1]; 0 for no samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Mean(double sum, int64_t n) { return n > 0 ? sum / static_cast<double>(n) : 0; }

// Fixed integer work split over `threads` threads; returns milliseconds.
// The 1- vs 2-thread ratio shows what parallel speed-up the machine offers
// at all, apart from the engine.
double SpinProbeMs(int threads) {
  constexpr uint64_t kIterations = uint64_t{1} << 26;
  std::atomic<uint64_t> sink{0};
  auto start = Clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&sink, t, threads] {
      uint64_t x = static_cast<uint64_t>(t) + 1;
      for (uint64_t i = 0; i < kIterations / static_cast<uint64_t>(threads); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink += x;
    });
  }
  for (std::thread& w : workers) w.join();
  return Micros(start, Clock::now()) / 1000;
}

double MedianSpinProbeMs(int threads) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) ms.push_back(SpinProbeMs(threads));
  return Percentile(ms, 0.5);
}

QueryOptions ReadOptions(const Workload& workload, int threads) {
  QueryOptions options(starmagic::ExecutionStrategy::kMagic);
  options.num_threads = threads;
  options.use_plan_cache = workload.use_plan_cache();
  return options;
}

Status RunSetup(Database* db, const SetupScript& script,
                const QueryOptions& options, Tracer* tracer,
                std::vector<double>* analyze_us) {
  for (const std::string& sql : script.load) {
    SM_RETURN_IF_ERROR(db->Execute(sql));
  }
  for (const auto& [table, column] : script.primary_keys) {
    SM_RETURN_IF_ERROR(db->SetPrimaryKey(table, {column}));
  }
  for (const std::string& sql : script.schema) {
    if (sql != "ANALYZE") {
      SM_RETURN_IF_ERROR(db->Execute(sql));
      continue;
    }
    Status status;
    analyze_us->push_back(
        Timed(tracer, "catalog.analyze", [&] { status = db->AnalyzeAll(); }));
    SM_RETURN_IF_ERROR(status);
  }
  for (const std::string& sql : script.prepares) {
    SM_RETURN_IF_ERROR(db->Query(sql, options).status());
  }
  return Status::OK();
}

// One read compiled and run again through the layer functions, outside
// Database::Query: parse, QGM build, the rewrite/EMST/plan pipeline, bind
// (EXECUTE only) and the executor. Leaves the plan cache untouched.
struct Replay {
  starmagic::Table table;
  ExecStats stats;
  starmagic::ParallelStats parallel;
  starmagic::PipelineResult pipeline;
  int64_t boxes_built = 0;
  double parse_us = 0;
  double build_us = 0;
  double optimize_us = 0;
  double exec_us = 0;
};

Result<Replay> ReplayLayers(Database* db, const Statement& st, int threads,
                            Tracer* tracer) {
  Replay r;
  const std::string& sql = st.prepared_body.empty() ? st.sql : st.prepared_body;
  Result<std::unique_ptr<starmagic::AstBlob>> blob = Status::Internal("not run");
  r.parse_us = Timed(tracer, "sql.parse", [&] { blob = starmagic::ParseQuery(sql); });
  SM_RETURN_IF_ERROR(blob.status());

  Result<std::unique_ptr<starmagic::QueryGraph>> graph = Status::Internal("not run");
  r.build_us = Timed(tracer, "qgm.build", [&] {
    graph = starmagic::QgmBuilder(db->catalog()).Build(**blob);
  });
  SM_RETURN_IF_ERROR(graph.status());
  r.boxes_built = static_cast<int64_t>((*graph)->boxes().size());

  Result<starmagic::PipelineResult> pipeline = Status::Internal("not run");
  r.optimize_us = Timed(tracer, "optimizer.optimize", [&] {
    pipeline = starmagic::OptimizeQuery(std::move(*graph), db->catalog(),
                                        starmagic::PipelineOptions{});
  });
  SM_RETURN_IF_ERROR(pipeline.status());
  r.pipeline = std::move(*pipeline);
  if (!st.prepared_body.empty()) {
    std::vector<starmagic::Value> args;
    for (int64_t a : st.args) args.push_back(starmagic::Value::Int(a));
    SM_RETURN_IF_ERROR(starmagic::BindParameters(r.pipeline.graph.get(), args));
  }

  starmagic::ResourceGovernor governor(starmagic::ResourceBudget::Unlimited());
  starmagic::ExecOptions exec_options;
  exec_options.num_threads = threads;
  exec_options.governor = &governor;
  starmagic::Executor executor(r.pipeline.graph.get(), db->catalog(), exec_options);
  Result<starmagic::Table> table = Status::Internal("not run");
  r.exec_us = Timed(tracer, "exec.run", [&] { table = executor.Run(); });
  SM_RETURN_IF_ERROR(table.status());
  r.table = std::move(*table);
  r.stats = executor.stats();
  r.parallel = executor.parallel_stats();
  return r;
}

// Sums over the reads the traced run replayed (those that compiled).
struct LayerSums {
  int64_t replayed = 0;
  double parse_us = 0;
  double build_us = 0;
  double optimize_us = 0;
  double exec_us = 0;
  double query_us = 0;  // Database::Query time of the same reads
  double phase_us[3] = {0, 0, 0};
  double emst_us = 0;
  int64_t boxes_built = 0;
  int64_t boxes_final = 0;
  int64_t fires = 0;
  int64_t attempts = 0;
  int64_t emst_chosen = 0;
  std::vector<double> qerror;
  ExecStats exec;
  starmagic::ParallelStats parallel;
  // Ad-hoc lookups only: compile (parse + build + optimize) and total.
  double adhoc_compile_us = 0;
  double adhoc_layers_us = 0;

  void Add(const Replay& r, double query_us, bool adhoc) {
    ++replayed;
    parse_us += r.parse_us;
    build_us += r.build_us;
    optimize_us += r.optimize_us;
    exec_us += r.exec_us;
    this->query_us += query_us;
    for (const starmagic::RuleFireStats& f : r.pipeline.rule_fires) {
      int phase = f.phase.rfind("phase1", 0) == 0   ? 0
                  : f.phase.rfind("phase2", 0) == 0 ? 1
                  : f.phase.rfind("phase3", 0) == 0 ? 2
                                                    : -1;
      if (phase >= 0) phase_us[phase] += f.wall_ms * 1000;
      if (f.rule == "emst") emst_us += f.wall_ms * 1000;
      fires += f.fires;
      attempts += f.attempts;
    }
    boxes_built += r.boxes_built;
    boxes_final += static_cast<int64_t>(r.pipeline.graph->boxes().size());
    emst_chosen += r.pipeline.emst_chosen ? 1 : 0;
    double estimated = r.pipeline.emst_chosen ? r.pipeline.cost_with_emst
                                              : r.pipeline.cost_no_emst;
    qerror.push_back(starmagic::QError(estimated,
                                       static_cast<double>(r.stats.TotalWork())));
    exec.MergeFrom(r.stats);
    parallel.morsels += r.parallel.morsels;
    parallel.worker_busy_us += r.parallel.worker_busy_us;
    parallel.barrier_wait_us += r.parallel.barrier_wait_us;
    if (adhoc) {
      double compile = r.parse_us + r.build_us + r.optimize_us;
      adhoc_compile_us += compile;
      adhoc_layers_us += compile + r.exec_us;
    }
  }
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  double loop_seconds = 0;  // statements only, reference samples excluded
  // The loop is cut into segments, one per SpeedReference sample taken at
  // its start: where each segment starts in loop_seconds, and its sample.
  std::vector<double> segment_start_s;
  std::vector<double> segment_reference_ms;
  std::vector<double> read_ms;
  std::vector<size_t> read_segment;  // per read_ms entry
  std::vector<double> insert_ms;
  std::vector<double> update_ms;
  std::vector<double> analyze_us;  // set-up ANALYZEs too
  int64_t work = 0;
  int64_t peak_bytes_max = 0;
  int64_t peak_bytes_sum = 0;
  int64_t cancel_checks = 0;
  double query_us_sum = 0;
  // Traced run only.
  LayerSums layers;
  int64_t executes = 0;
  double execute_us = 0;
  int64_t hits = 0;
  double hit_us = 0;
  int64_t equivalence_mismatches = 0;
};

class Runner {
 public:
  Runner(Workload* workload, const QueryOptions& options, Database* db,
         Tracer* tracer, SpeedReference* reference, RunResult* out)
      : workload_(workload), db_(db), tracer_(tracer), reference_(reference),
        out_(out), options_(options) {}

  // Runs statements for `seconds`, and on until `min_reads` reads are done.
  void Loop(double seconds, int64_t min_reads) {
    auto start = Clock::now();
    double sampling_s = 0;
    double next_sample = 0;
    for (int64_t i = 0;; ++i) {
      double elapsed = Micros(start, Clock::now()) / 1e6;
      if ((elapsed >= seconds && Reads() >= min_reads) || elapsed >= kHardStopSeconds) {
        out_->loop_seconds = elapsed - sampling_s;
        return;
      }
      if (elapsed >= next_sample) {
        auto sample_start = Clock::now();
        out_->segment_start_s.push_back(elapsed - sampling_s);
        out_->segment_reference_ms.push_back(reference_->Sample());
        sampling_s += Micros(sample_start, Clock::now()) / 1e6;
        next_sample = elapsed + kReferenceIntervalSeconds;
      }
      Statement st = workload_->Next();
      starmagic::SpanScope span(tracer_, "statement", "perfbench");
      span.SetAttribute("index", i);
      span.SetAttribute("sql", st.sql.substr(0, 200));
      ++out_->attempted;
      if (st.kind == StmtKind::kRead) {
        RunRead(st, &span);
      } else {
        RunWrite(st);
      }
    }
  }

 private:
  int64_t Reads() const { return static_cast<int64_t>(out_->read_ms.size()); }

  void Fail(const Statement& st, const std::string& why) {
    if (++out_->failed <= 10) {
      std::fprintf(stderr, "FAILED: %s\n  %s\n", st.sql.substr(0, 300).c_str(),
                   why.c_str());
    }
  }

  void RunWrite(const Statement& st) {
    const char* span = st.kind == StmtKind::kInsert   ? "catalog.insert"
                       : st.kind == StmtKind::kUpdate ? "catalog.update"
                                                      : "catalog.analyze";
    Status status;
    double us = Timed(tracer_, span, [&] { status = db_->Execute(st.sql); });
    if (!status.ok()) Fail(st, status.ToString());
    switch (st.kind) {
      case StmtKind::kInsert: out_->insert_ms.push_back(us / 1000); break;
      case StmtKind::kUpdate: out_->update_ms.push_back(us / 1000); break;
      default: out_->analyze_us.push_back(us); break;
    }
  }

  void RunRead(const Statement& st, starmagic::SpanScope* span) {
    Result<QueryResult> result = Status::Internal("not run");
    double us = Timed(tracer_, "engine.query",
                      [&] { result = db_->Query(st.sql, options_); });
    out_->read_ms.push_back(us / 1000);
    out_->read_segment.push_back(out_->segment_start_s.size() - 1);
    out_->query_us_sum += us;
    if (!result.ok()) {
      Fail(st, result.status().ToString());
      return;
    }
    const QueryResult& q = *result;
    out_->work += q.exec_stats.TotalWork();
    out_->peak_bytes_max = std::max(out_->peak_bytes_max, q.governor.peak_bytes);
    out_->peak_bytes_sum += q.governor.peak_bytes;
    out_->cancel_checks += q.governor.cancel_checks;
    Rows got = ToRows(q.table);
    std::string why;
    if (!SameRows(st.expected, got, &why)) {
      Fail(st, "oracle mismatch: " + why);
      return;
    }
    if (tracer_ == nullptr) return;

    span->SetAttribute("plan_cache", q.plan_cache_hit ? "hit" : "miss");
    bool adhoc = st.prepared_body.empty();
    if (!adhoc) {
      ++out_->executes;
      out_->execute_us += us;
    }
    if (q.plan_cache_hit) {
      ++out_->hits;
      out_->hit_us += us;
      return;
    }
    Result<Replay> replay = ReplayLayers(db_, st, options_.num_threads, tracer_);
    if (!replay.ok()) {
      ++out_->equivalence_mismatches;
      Fail(st, "traced replay failed: " + replay.status().ToString());
      return;
    }
    if (replay->stats.TotalWork() != q.exec_stats.TotalWork() ||
        !SameRows(got, ToRows(replay->table), &why)) {
      ++out_->equivalence_mismatches;
      Fail(st, "traced replay differs from Database::Query: " + why +
                   " work " + std::to_string(replay->stats.TotalWork()) + " vs " +
                   std::to_string(q.exec_stats.TotalWork()));
      return;
    }
    out_->layers.Add(*replay, us, adhoc);
  }

  Workload* workload_;
  Database* db_;
  Tracer* tracer_;
  SpeedReference* reference_;
  RunResult* out_;
  QueryOptions options_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", " : "") + Json(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + Json(metrics[i].unit) + "}";
  }
  return out + "}";
}

// The loop's times rescaled to SpeedReference::kNominalMs. Each segment
// takes the median of its own sample and kReferenceNeighbours on each side,
// so drift within a run is followed and one disturbed sample is not.
struct NominalTimes {
  double loop_seconds = 0;
  std::vector<double> read_ms;
};

NominalTimes ToNominal(const RunResult& r) {
  const std::vector<double>& ref = r.segment_reference_ms;
  std::vector<double> scale;
  for (size_t i = 0; i < ref.size(); ++i) {
    size_t lo = i > kReferenceNeighbours ? i - kReferenceNeighbours : 0;
    size_t hi = std::min(ref.size(), i + kReferenceNeighbours + 1);
    std::vector<double> around(ref.begin() + static_cast<std::ptrdiff_t>(lo),
                               ref.begin() + static_cast<std::ptrdiff_t>(hi));
    scale.push_back(SpeedReference::kNominalMs / Percentile(around, 0.5));
  }
  NominalTimes out;
  for (size_t i = 0; i < scale.size(); ++i) {
    double end = i + 1 < scale.size() ? r.segment_start_s[i + 1] : r.loop_seconds;
    out.loop_seconds += (end - r.segment_start_s[i]) * scale[i];
  }
  for (size_t i = 0; i < r.read_ms.size(); ++i) {
    out.read_ms.push_back(r.read_ms[i] * scale[r.read_segment[i]]);
  }
  return out;
}

std::vector<Metric> EndToEndMetrics(const RunResult& r, double setup_s) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  NominalTimes nominal = ToNominal(r);
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", static_cast<double>(r.attempted) / nominal.loop_seconds, "1/s"},
      {"query_p50_ms", Percentile(nominal.read_ms, 0.5), "ms"},
      {"query_p90_ms", Percentile(nominal.read_ms, 0.9), "ms"},
      {"work_per_query",
       Mean(static_cast<double>(r.work), static_cast<int64_t>(r.read_ms.size())),
       "count"},
      {"peak_bytes_max", static_cast<double>(r.peak_bytes_max), "bytes"},
      {"rss_peak_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
  };
}

std::vector<Metric> LayerMetrics(const RunResult& r,
                                 const starmagic::PlanCacheStats& pc,
                                 int threads) {
  const LayerSums& l = r.layers;
  const ExecStats& e = l.exec;
  int64_t n = l.replayed;
  auto reads = static_cast<int64_t>(r.read_ms.size());
  double rule_us = l.phase_us[0] + l.phase_us[1] + l.phase_us[2];
  double per_kstmt = 1000.0 / static_cast<double>(std::max<int64_t>(1, r.attempted));
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  auto mean_ms = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return Mean(sum, static_cast<int64_t>(v.size()));
  };
  return {
      {"trace.ops_per_s",
       static_cast<double>(r.attempted) / ToNominal(r).loop_seconds, "1/s"},
      {"machine.reference_ms", Percentile(r.segment_reference_ms, 0.5), "ms"},
      {"trace.replayed_share", ratio(static_cast<double>(n), static_cast<double>(reads)), "ratio"},
      {"sql.parse_us", Mean(l.parse_us, n), "us"},
      {"qgm.build_us", Mean(l.build_us, n), "us"},
      {"qgm.boxes_built", Mean(static_cast<double>(l.boxes_built), n), "count"},
      {"rewrite.phase1_us", Mean(l.phase_us[0], n), "us"},
      {"rewrite.phase2_us", Mean(l.phase_us[1], n), "us"},
      {"rewrite.phase3_us", Mean(l.phase_us[2], n), "us"},
      {"rewrite.fires", Mean(static_cast<double>(l.fires), n), "count"},
      {"rewrite.fire_ratio", ratio(static_cast<double>(l.fires), static_cast<double>(l.attempts)), "ratio"},
      {"magic.emst_us", Mean(l.emst_us, n), "us"},
      {"magic.emst_chosen_ratio", Mean(static_cast<double>(l.emst_chosen), n), "ratio"},
      {"optimizer.optimize_us", Mean(l.optimize_us, n), "us"},
      {"optimizer.plan_us", Mean(l.optimize_us - rule_us, n), "us"},
      {"optimizer.boxes_final", Mean(static_cast<double>(l.boxes_final), n), "count"},
      {"optimizer.qerror_p50", Percentile(l.qerror, 0.5), "ratio"},
      {"plan.hit_ratio", ratio(static_cast<double>(pc.hits), static_cast<double>(pc.hits + pc.misses)), "ratio"},
      {"plan.invalidations", static_cast<double>(pc.invalidations) * per_kstmt, "count/kstmt"},
      {"plan.evictions", static_cast<double>(pc.evictions) * per_kstmt, "count/kstmt"},
      {"plan.execute_us", Mean(r.execute_us, r.executes), "us"},
      {"plan.hit_us", Mean(r.hit_us, r.hits), "us"},
      {"exec.run_us", Mean(l.exec_us, n), "us"},
      {"exec.share", ratio(l.exec_us, l.query_us), "ratio"},
      {"exec.rows_scanned", Mean(static_cast<double>(e.rows_scanned), n), "count"},
      {"exec.rows_produced", Mean(static_cast<double>(e.rows_produced), n), "count"},
      {"exec.join_probes", Mean(static_cast<double>(e.join_probes), n), "count"},
      {"exec.box_evaluations", Mean(static_cast<double>(e.box_evaluations), n), "count"},
      {"exec.fixpoint_iterations", Mean(static_cast<double>(e.fixpoint_iterations), n), "count"},
      {"exec.cache_hit_ratio", ratio(static_cast<double>(e.cache_hits), static_cast<double>(e.cache_hits + e.cache_misses)), "ratio"},
      {"exec.ns_per_work", ratio(l.exec_us * 1000, static_cast<double>(e.TotalWork())), "ns"},
      {"index.probes", Mean(static_cast<double>(e.index_probes), n), "count"},
      {"index.rows_per_probe", ratio(static_cast<double>(e.index_rows_fetched), static_cast<double>(e.index_probes)), "count"},
      {"parallel.morsels", Mean(static_cast<double>(l.parallel.morsels), n), "count"},
      {"parallel.worker_busy_us", Mean(static_cast<double>(l.parallel.worker_busy_us), n), "us"},
      {"parallel.barrier_wait_us", Mean(static_cast<double>(l.parallel.barrier_wait_us), n), "us"},
      {"parallel.busy_share", ratio(static_cast<double>(l.parallel.worker_busy_us), l.exec_us * threads), "ratio"},
      {"governor.peak_bytes", Mean(static_cast<double>(r.peak_bytes_sum), reads), "bytes"},
      {"governor.cancel_checks", Mean(static_cast<double>(r.cancel_checks), reads), "count"},
      {"catalog.insert_us", mean_ms(r.insert_ms) * 1000, "us"},
      {"catalog.update_us", mean_ms(r.update_ms) * 1000, "us"},
      {"catalog.analyze_us", mean_ms(r.analyze_us), "us"},
      {"insert_p50_ms", Percentile(r.insert_ms, 0.5), "ms"},
      {"update_p50_ms", Percentile(r.update_ms, 0.5), "ms"},
      {"engine.query_us", Mean(r.query_us_sum, reads), "us"},
      {"engine.unattributed_us",
       Mean(l.query_us - l.parse_us - l.build_us - l.optimize_us - l.exec_us, n), "us"},
      {"engine.compile_share", ratio(l.adhoc_compile_us, l.adhoc_layers_us), "ratio"},
  };
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Tracer tracer(args.trace);
  Tracer* trace = args.trace ? &tracer : nullptr;
  RunResult result;
  auto initial_sizes = workload->Sizes();

  // The database of the last set-up run is the one measured.
  SetupScript script = workload->Setup();
  int threads = args.trace ? workload->traced_threads() : workload->threads();
  QueryOptions options = ReadOptions(*workload, threads);
  std::vector<double> setup_s;
  std::unique_ptr<Database> db;
  SpeedReference reference;
  std::vector<double> setup_reference_ms;
  for (int i = 0; i < kSetupRuns; ++i) {
    db.reset();
    setup_reference_ms.push_back(reference.Sample());
    auto start = Clock::now();
    db = std::make_unique<Database>();
    Status status = RunSetup(db.get(), script, options, trace, &result.analyze_us);
    setup_s.push_back(Micros(start, Clock::now()) / 1e6);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  // Set-up is short: one speed for all of it.
  double setup_reference = Percentile(setup_reference_ms, 0.5);
  double setup_nominal_s =
      Percentile(setup_s, 0.5) * SpeedReference::kNominalMs / setup_reference;

  RunResult warmup;
  Runner(workload.get(), options, db.get(), nullptr, &reference, &warmup)
      .Loop(kWarmupSeconds, 0);

  starmagic::PlanCacheStats before = db->plan_cache()->stats();
  Runner(workload.get(), options, db.get(), trace, &reference, &result)
      .Loop(args.seconds, kMinReads);
  starmagic::PlanCacheStats after = db->plan_cache()->stats();
  starmagic::PlanCacheStats pc{after.hits - before.hits, after.misses - before.misses,
                               after.invalidations - before.invalidations,
                               after.evictions - before.evictions};

  double spin1 = MedianSpinProbeMs(1);
  double spin2 = MedianSpinProbeMs(2);
  auto sizes_json = [](const std::vector<std::pair<std::string, int64_t>>& sizes) {
    std::string out = "{";
    for (size_t i = 0; i < sizes.size(); ++i) {
      out += (i > 0 ? ", " : "") + Json(sizes[i].first) + ": " +
             std::to_string(sizes[i].second);
    }
    return out + "}";
  };
  std::printf(
      "{\"env\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"git_sha\": %s, \"nproc\": %ld, \"loop\": \"closed\", \"clients\": 1, "
      "\"engine_threads\": %d, \"use_plan_cache\": %s, "
      "\"tables_at_start\": %s, \"tables_at_end\": %s, "
      "\"adhoc_distinct\": %lld, \"plan_cache_capacity\": %zu, "
      "\"plan_cache\": {\"hits\": %lld, \"misses\": %lld, "
      "\"invalidations\": %lld, \"evictions\": %lld}, "
      "\"warmup_statements\": %lld, \"statements\": %lld, \"reads\": %zu, \"inserts\": %zu, "
      "\"updates\": %zu, \"loop_s\": %s, \"setup_runs\": %zu, "
      "\"spin_probe_ms\": {\"1\": %s, \"2\": %s, \"speedup\": %s}, "
      "\"reference_ms\": {\"nominal\": %s, \"setup\": %s, \"loop\": %s, "
      "\"samples\": %zu}, "
      "\"unscaled\": {\"setup_s\": %s, \"ops_per_s\": %s, "
      "\"query_p50_ms\": %s, \"query_p90_ms\": %s}, "
      "\"replayed\": %lld, \"equivalence_mismatches\": %lld}}\n",
      Json(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, Json(args.git_sha).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      threads, workload->use_plan_cache() ? "true" : "false",
      sizes_json(initial_sizes).c_str(), sizes_json(workload->Sizes()).c_str(),
      static_cast<long long>(workload->DistinctAdhoc()),
      db->plan_cache()->capacity(), static_cast<long long>(pc.hits),
      static_cast<long long>(pc.misses), static_cast<long long>(pc.invalidations),
      static_cast<long long>(pc.evictions), static_cast<long long>(warmup.attempted),
      static_cast<long long>(result.attempted),
      result.read_ms.size(), result.insert_ms.size(), result.update_ms.size(),
      Num(result.loop_seconds).c_str(), setup_s.size(), Num(spin1).c_str(),
      Num(spin2).c_str(), Num(spin1 / spin2).c_str(),
      Num(SpeedReference::kNominalMs).c_str(), Num(setup_reference).c_str(),
      Num(Percentile(result.segment_reference_ms, 0.5)).c_str(),
      result.segment_reference_ms.size(),
      Num(Percentile(setup_s, 0.5)).c_str(),
      Num(static_cast<double>(result.attempted) / result.loop_seconds).c_str(),
      Num(Percentile(result.read_ms, 0.5)).c_str(),
      Num(Percentile(result.read_ms, 0.9)).c_str(),
      static_cast<long long>(result.layers.replayed),
      static_cast<long long>(result.equivalence_mismatches));

  if (trace != nullptr && !args.trace_out.empty()) {
    Status written = tracer.WriteTraceEventJson(args.trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "trace not written: %s\n", written.ToString().c_str());
    }
  }

  std::vector<Metric> metrics =
      args.trace ? LayerMetrics(result, pc, threads)
                 : EndToEndMetrics(result, setup_nominal_s);
  // The warm-up's statements were checked too.
  int64_t attempted = warmup.attempted + result.attempted;
  int64_t failed = warmup.failed + result.failed;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--git-sha <sha>] [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
