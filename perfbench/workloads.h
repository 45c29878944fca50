// The benchmark's three workloads. Each one generates, from its seed, the
// script that builds its database and an endless stream of SQL statements,
// each read paired with the answer the model in model.h computes for it.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model.h"

namespace perfbench {

enum class StmtKind { kRead, kInsert, kUpdate, kAnalyze };

struct Statement {
  StmtKind kind = StmtKind::kRead;
  std::string sql;
  /// For an EXECUTE: the body of the prepared form and its arguments, so
  /// the traced run can replay the compile a plan-cache miss paid for.
  /// Empty for ad-hoc SQL.
  std::string prepared_body;
  std::vector<int64_t> args;
  /// Reads: the oracle's answer, sorted with SortRows.
  Rows expected;
};

/// Everything set-up runs, in order: `load` and `schema` through
/// Database::Execute with the primary keys declared between them, then
/// `prepares` through Database::Query.
struct SetupScript {
  std::vector<std::string> load;
  std::vector<std::pair<std::string, std::string>> primary_keys;
  std::vector<std::string> schema;
  std::vector<std::string> prepares;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Engine threads (QueryOptions::num_threads) for every read of the
  /// timed run (--trace 0).
  virtual int threads() const = 0;
  /// Engine threads in the traced run (--trace 1), which reports the
  /// parallel layer where this is above one.
  virtual int traced_threads() const { return threads(); }
  /// Whether ad-hoc reads consult the plan cache, as the shell does.
  virtual bool use_plan_cache() const { return false; }
  /// The set-up script for the initial data; the same on every call.
  virtual SetupScript Setup() const = 0;
  /// The next statement. Writes are mirrored into the model, so the
  /// expected answers of later reads include them.
  virtual Statement Next() = 0;
  /// Row counts of the loaded tables (and graph size), for the run record.
  virtual std::vector<std::pair<std::string, int64_t>> Sizes() const = 0;
  /// Distinct ad-hoc statement texts issued so far.
  virtual int64_t DistinctAdhoc() const { return 0; }
};

/// "olap_views", "oltp_mixed" or "recursive_reach"; null for another name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
