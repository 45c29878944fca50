#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <set>

namespace perfbench {
namespace {

// Money values are whole numbers; the ".0" makes them DOUBLE literals.
std::string Money(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string Str(int64_t v) { return std::to_string(v); }

// A SQL string literal (the generated names need no escaping).
std::string Quoted(const std::string& s) {
  std::string out = "'";
  out += s;
  out += "'";
  return out;
}

// "(a, b, c)": one VALUES tuple.
std::string Tuple(std::initializer_list<std::string> values) {
  std::string out = "(";
  for (const std::string& v : values) {
    if (out.size() > 1) out += ", ";
    out += v;
  }
  return out + ")";
}

// Appends INSERT statements of up to 500 tuples each.
void AddInserts(const std::string& table, const std::vector<std::string>& tuples,
                std::vector<std::string>* out) {
  constexpr size_t kBatch = 500;
  for (size_t i = 0; i < tuples.size(); i += kBatch) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (size_t j = i; j < std::min(tuples.size(), i + kBatch); ++j) {
      sql += (j > i ? ", " : "") + tuples[j];
    }
    out->push_back(std::move(sql));
  }
}

std::string EmployeeTuple(const Employee& e) {
  return Tuple({Str(e.empno), Quoted("Emp" + Str(e.empno)), Str(e.workdept),
                Money(e.salary), Money(e.bonus)});
}

std::string ProjectTuple(const Project& p) {
  return Tuple({Str(p.projno), Quoted("Proj" + Str(p.projno)), Str(p.deptno),
                Money(p.budget)});
}

std::string DeptName(int64_t d) { return "Dept" + Str(d); }

// Tables, data, keys, indexes and views shared by the two workloads over
// the employee/department/project corpus (the Table 1 schema).
SetupScript EmpDeptSetup(const EmpDeptModel& m) {
  SetupScript s;
  s.load = {
      "CREATE TABLE department (deptno INTEGER, deptname VARCHAR, "
      "mgrno INTEGER, budget DOUBLE)",
      "CREATE TABLE employee (empno INTEGER, empname VARCHAR, "
      "workdept INTEGER, salary DOUBLE, bonus DOUBLE)",
      "CREATE TABLE project (projno INTEGER, projname VARCHAR, "
      "deptno INTEGER, budget DOUBLE)"};
  std::vector<std::string> tuples;
  for (int64_t d = 0; d < m.departments(); ++d) {
    tuples.push_back(Tuple({Str(d), Quoted(DeptName(d)), Str(d),
                            Money(m.dept_budgets()[d])}));
  }
  AddInserts("department", tuples, &s.load);
  tuples.clear();
  for (const Employee& e : m.employees()) tuples.push_back(EmployeeTuple(e));
  AddInserts("employee", tuples, &s.load);
  tuples.clear();
  for (const Project& p : m.projects()) tuples.push_back(ProjectTuple(p));
  AddInserts("project", tuples, &s.load);

  s.primary_keys = {
      {"department", "deptno"}, {"employee", "empno"}, {"project", "projno"}};
  // Indexes on the join columns, as the paper's DB2 set-up assumes: magic
  // boxes drive point probes into them.
  s.schema = {
      "CREATE INDEX emp_workdept ON employee (workdept)",
      "CREATE INDEX emp_empno ON employee (empno)",
      "CREATE INDEX dept_deptno ON department (deptno)",
      "CREATE INDEX dept_deptname ON department (deptname)",
      "CREATE INDEX dept_mgrno ON department (mgrno)",
      "CREATE INDEX proj_deptno ON project (deptno)",
      "CREATE VIEW avgDeptSal (workdept, avgsalary) AS "
      "SELECT workdept, AVG(salary) FROM employee GROUP BY workdept",
      "CREATE VIEW deptActivity (dept, people, spend) AS "
      "SELECT e.workdept, COUNT(*), SUM(p.budget) "
      "FROM employee e, project p WHERE e.workdept = p.deptno "
      "GROUP BY e.workdept",
      "CREATE VIEW bigDeptActivity (dept, people, spend) AS "
      "SELECT dept, people, spend FROM deptActivity WHERE people > 0",
      "CREATE VIEW mgrSal (empno, empname, workdept, salary) AS "
      "SELECT e.empno, e.empname, e.workdept, e.salary "
      "FROM employee e, department d WHERE e.empno = d.mgrno",
      "CREATE VIEW avgMgrSal (workdept, avgsalary) AS "
      "SELECT workdept, AVG(salary) FROM mgrSal GROUP BY workdept"};
  return s;
}

// ---------------------------------------------------------------------------
// olap_views: Table 1 C/D/E/B/H shapes. Large, duplicated probe outers join
// the aggregate views; each read restricts the outer to one seeded group,
// whose departments form a narrow window, so EMST computes the views for a
// few departments only. Read-only. One engine thread in the timed run: on a
// shared virtual machine the second core comes and goes, and two-thread
// timings spread more than the regression bound allows. The traced run uses
// two, so it reports the parallel layer.

class OlapViews : public Workload {
 public:
  static constexpr int64_t kGroups = 12;
  static constexpr int64_t kProbeRows = 2000;      // per group
  static constexpr int64_t kProbeSmallRows = 200;  // per group
  // Shape H restricts departments 0..k, k in [kRangeBase, kRangeBase +
  // kRangeSpan): a narrow band, so the shape's cost, which grows with k,
  // does not depend on which values of k a run happens to repeat.
  static constexpr int64_t kRangeBase = 5;
  static constexpr int64_t kRangeSpan = 10;

  explicit OlapViews(uint64_t seed)
      : model_({400, 20000, 4000}, seed), rng_(seed ^ 0x0a11u) {
    // probe groups span a window of 40 departments; probe_small groups
    // (the B shape) a window of 8.
    MakeProbe(kProbeRows, 40, &probe_);
    MakeProbe(kProbeSmallRows, 8, &probe_small_);
    group_order_ = Shuffled(kGroups);
    range_order_ = Shuffled(kRangeSpan);
  }

  int threads() const override { return 1; }
  int traced_threads() const override { return 2; }

  SetupScript Setup() const override {
    SetupScript s = EmpDeptSetup(model_);
    for (const auto& [name, groups] :
         {std::pair{"probe", &probe_}, std::pair{"probe_small", &probe_small_}}) {
      s.load.push_back(std::string("CREATE TABLE ") + name +
                       " (pdept INTEGER, tag INTEGER, grp INTEGER)");
      std::vector<std::string> tuples;
      for (int64_t g = 0; g < kGroups; ++g) {
        for (const auto& [tag, dept] : (*groups)[g]) {
          tuples.push_back(Tuple({Str(dept), Str(tag), Str(g)}));
        }
      }
      AddInserts(name, tuples, &s.load);
      s.schema.push_back(std::string("CREATE INDEX ") + name + "_grp ON " +
                         name + " (grp)");
    }
    s.schema.push_back("ANALYZE");
    return s;
  }

  // Parameters cycle through seeded permutations, so every run of a few
  // hundred reads covers the same groups and ranges.
  Statement Next() override {
    int64_t i = next_++;
    int64_t g = group_order_[(i / 5) % kGroups];
    Statement st;
    std::string grp = " AND p.grp = " + Str(g);
    switch (i % 5) {
      case 0:  // C: join-fan-out view probed by a large duplicated outer
      case 1:  // D: the same through a nested view
        st.sql = i % 5 == 0 ? "SELECT p.tag, a.spend FROM probe p, deptActivity a "
                              "WHERE p.pdept = a.dept"
                            : "SELECT p.tag, t.spend FROM probe p, bigDeptActivity t "
                              "WHERE p.pdept = t.dept";
        st.sql += grp;
        for (const auto& [tag, d] : probe_[g]) {
          if (model_.HasActivity(d)) st.expected.push_back({Num(tag), model_.Spend(d)});
        }
        break;
      case 2:  // E: two aggregate views probed by one outer
        st.sql = "SELECT p.tag, s.avgsalary, a.spend "
                 "FROM probe p, avgDeptSal s, deptActivity a "
                 "WHERE p.pdept = s.workdept AND p.pdept = a.dept" + grp;
        for (const auto& [tag, d] : probe_[g]) {
          if (model_.HasActivity(d)) {
            st.expected.push_back({Num(tag), model_.AvgSalary(d), model_.Spend(d)});
          }
        }
        break;
      case 3:  // B: aggregate view probed by a small duplicated outer
        st.sql = "SELECT p.tag, s.avgsalary FROM probe_small p, avgDeptSal s "
                 "WHERE p.pdept = s.workdept" + grp;
        for (const auto& [tag, d] : probe_small_[g]) {
          if (model_.EmpCount(d) > 0) {
            st.expected.push_back({Num(tag), model_.AvgSalary(d)});
          }
        }
        break;
      default: {  // H: range restriction, pushed down by condition magic
        int64_t k = kRangeBase + range_order_[(i / 5) % kRangeSpan];
        st.sql = "SELECT d.deptname, a.spend FROM department d, deptActivity a "
                 "WHERE a.dept <= d.deptno AND d.deptname = " + Quoted(DeptName(k));
        for (int64_t d = 0; d <= k; ++d) {
          if (model_.HasActivity(d)) st.expected.push_back({DeptName(k), model_.Spend(d)});
        }
        break;
      }
    }
    SortRows(&st.expected);
    return st;
  }

  std::vector<std::pair<std::string, int64_t>> Sizes() const override {
    return {{"department", model_.departments()},
            {"employee", static_cast<int64_t>(model_.employees().size())},
            {"project", static_cast<int64_t>(model_.projects().size())},
            {"probe", kProbeRows * kGroups},
            {"probe_small", kProbeSmallRows * kGroups}};
  }

 private:
  using Groups = std::vector<std::vector<std::pair<int64_t, int64_t>>>;

  static Cell Num(int64_t v) { return static_cast<double>(v); }

  // 0 .. n-1 in a seeded order.
  std::vector<int64_t> Shuffled(int64_t n) {
    std::vector<int64_t> order;
    for (int64_t i = 0; i < n; ++i) order.push_back(i);
    for (int64_t i = n - 1; i > 0; --i) std::swap(order[i], order[rng_.Uniform(i + 1)]);
    return order;
  }

  // Group g holds `rows` (tag, pdept) pairs, pdept drawn from a window of
  // `window` departments at a seeded offset. Tags are unique per table.
  void MakeProbe(int64_t rows, int64_t window, Groups* groups) {
    int64_t tag = 0;
    for (int64_t g = 0; g < kGroups; ++g) {
      int64_t base = rng_.Uniform(model_.departments() - window);
      groups->emplace_back();
      for (int64_t r = 0; r < rows; ++r) {
        groups->back().emplace_back(tag++, base + rng_.Uniform(window));
      }
    }
  }

  EmpDeptModel model_;
  Rng rng_;
  Groups probe_;
  Groups probe_small_;
  std::vector<int64_t> group_order_;
  std::vector<int64_t> range_order_;
  int64_t next_ = 0;
};

// ---------------------------------------------------------------------------
// oltp_mixed: point-restricted view lookups (Table 1 A/F/G shapes) beside
// single-row writes. Half the reads are ad-hoc SQL with literals (more
// distinct texts than the plan cache holds), half EXECUTE a prepared form.
// Per 100 statements: 15 INSERTs, 1 UPDATE, 84 reads; an ANALYZE every
// 1000. One engine thread. Inserted rows continue the department cycle of
// the load (model.h), so the largest department, which sets
// peak_bytes_max, grows the same way on every seed.

class OltpMixed : public Workload {
 public:
  explicit OltpMixed(uint64_t seed)
      : model_({2000, 100000, 10000}, seed), rng_(seed ^ 0x0171u) {}

  int threads() const override { return 1; }
  bool use_plan_cache() const override { return true; }

  SetupScript Setup() const override {
    SetupScript s = EmpDeptSetup(model_);
    s.schema.push_back("ANALYZE");
    for (int shape = 0; shape < 3; ++shape) s.prepares.push_back(kPrepared[shape]);
    return s;
  }

  Statement Next() override {
    int64_t i = next_++;
    Statement st;
    if (i % 1000 == 999) {
      // Periodic re-statistics: invalidates every cached plan.
      st.kind = StmtKind::kAnalyze;
      st.sql = "ANALYZE";
    } else if (i % 100 == 50) {
      // The UPDATE scans the table and rebuilds all of its indexes; it is
      // kept because that is the engine's real write cost.
      st.kind = StmtKind::kUpdate;
      int64_t empno = rng_.Uniform(static_cast<int64_t>(model_.employees().size()));
      double salary = 20000.0 + static_cast<double>(rng_.Uniform(100000));
      model_.SetSalary(empno, salary);
      st.sql = "UPDATE employee SET salary = " + Money(salary) +
               " WHERE empno = " + Str(empno);
    } else if (i % 20 == 4 || i % 20 == 17) {
      st.kind = StmtKind::kInsert;
      auto empno = static_cast<int64_t>(model_.employees().size());
      Employee e{empno, empno % model_.departments(),
                 20000.0 + static_cast<double>(rng_.Uniform(100000)),
                 static_cast<double>(rng_.Uniform(5000))};
      model_.AddEmployee(e);
      st.sql = "INSERT INTO employee VALUES " + EmployeeTuple(e);
    } else if (i % 20 == 11) {
      st.kind = StmtKind::kInsert;
      auto projno = static_cast<int64_t>(model_.projects().size());
      Project p{projno, projno % model_.departments(),
                1000.0 + static_cast<double>(rng_.Uniform(500000))};
      model_.AddProject(p);
      st.sql = "INSERT INTO project VALUES " + ProjectTuple(p);
    } else {
      MakeRead(&st);
    }
    return st;
  }

  std::vector<std::pair<std::string, int64_t>> Sizes() const override {
    return {{"department", model_.departments()},
            {"employee", static_cast<int64_t>(model_.employees().size())},
            {"project", static_cast<int64_t>(model_.projects().size())}};
  }

  int64_t DistinctAdhoc() const override {
    return static_cast<int64_t>(adhoc_.size());
  }

 private:
  static constexpr const char* kPrepared[3] = {
      "PREPARE q_avg AS SELECT d.deptname, s.avgsalary "
      "FROM department d, avgDeptSal s "
      "WHERE d.deptno = s.workdept AND d.deptno = ?",
      "PREPARE q_mgr AS SELECT d.deptname, s.workdept, s.avgsalary "
      "FROM department d, avgMgrSal s "
      "WHERE d.deptno = s.workdept AND d.deptno = ?",
      "PREPARE q_act AS SELECT dept, people, spend FROM deptActivity "
      "WHERE dept = ?"};
  static constexpr const char* kNames[3] = {"q_avg", "q_mgr", "q_act"};

  void MakeRead(Statement* st) {
    int64_t r = reads_++;
    int shape = static_cast<int>((r / 2) % 3);
    // Skewed departments: a hot set that fits the cache and a long tail.
    int64_t d = rng_.Skewed(model_.departments());
    if (r % 2 == 1) {
      std::string prepare = kPrepared[shape];
      st->prepared_body = prepare.substr(prepare.find(" AS ") + 4);
      st->args = {d};
      st->sql = std::string("EXECUTE ") + kNames[shape] + "(" + Str(d) + ")";
    } else if (shape == 0) {  // A: one department's average salary
      st->sql = "SELECT d.deptname, s.avgsalary FROM department d, avgDeptSal s "
                "WHERE d.deptno = s.workdept AND d.deptname = " + Quoted(DeptName(d));
    } else if (shape == 1) {  // G: the paper's query D over avgMgrSal
      st->sql = "SELECT d.deptname, s.workdept, s.avgsalary "
                "FROM department d, avgMgrSal s "
                "WHERE d.deptno = s.workdept AND d.deptname = " + Quoted(DeptName(d));
    } else {  // F: one department's activity
      st->sql = "SELECT dept, people, spend FROM deptActivity WHERE dept = " + Str(d);
    }
    if (st->prepared_body.empty()) adhoc_.insert(st->sql);
    if (shape == 0 && model_.EmpCount(d) > 0) {
      st->expected.push_back({DeptName(d), model_.AvgSalary(d)});
    } else if (shape == 1 && model_.HasManagers(d)) {
      st->expected.push_back({DeptName(d), static_cast<double>(d), model_.AvgMgrSalary(d)});
    } else if (shape == 2 && model_.HasActivity(d)) {
      st->expected.push_back({static_cast<double>(d), model_.People(d), model_.Spend(d)});
    }
  }

  EmpDeptModel model_;
  Rng rng_;
  std::set<std::string> adhoc_;
  int64_t next_ = 0;
  int64_t reads_ = 0;
};

// ---------------------------------------------------------------------------
// recursive_reach: bound-source transitive closure over a layered graph of
// 40 layers x 20 nodes. Each read fixes a seeded source in one of the first
// ten layers (cycled, so every run sees the same depths: 30 to 39 fixpoint
// rounds) and asks for its closure rows, their count, or the closure joined
// once more with edge. One engine thread.

class RecursiveReach : public Workload {
 public:
  static constexpr int64_t kSourceLayers = 10;

  explicit RecursiveReach(uint64_t seed) : graph_(40, 20, 2, seed), rng_(seed ^ 0x7ecu) {}

  int threads() const override { return 1; }

  SetupScript Setup() const override {
    SetupScript s;
    s.load = {"CREATE TABLE edge (src INTEGER, dst INTEGER)"};
    std::vector<std::string> tuples;
    for (const auto& [src, dst] : graph_.edges()) {
      tuples.push_back(Tuple({Str(src), Str(dst)}));
    }
    AddInserts("edge", tuples, &s.load);
    s.schema = {"CREATE INDEX edge_src ON edge (src)", "ANALYZE",
                "CREATE RECURSIVE VIEW tc (src, dst) AS "
                "SELECT src, dst FROM edge UNION "
                "SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src"};
    return s;
  }

  Statement Next() override {
    int64_t i = next_++;
    int64_t layer = (i / 3) % kSourceLayers;
    int64_t k = layer * graph_.width() + rng_.Uniform(graph_.width());
    std::vector<int64_t> reach = graph_.Reach(k);
    auto num = [](int64_t v) { return Cell(static_cast<double>(v)); };
    Statement st;
    switch (i % 3) {
      case 0:
        st.sql = "SELECT src, dst FROM tc WHERE src = " + Str(k);
        for (int64_t r : reach) st.expected.push_back({num(k), num(r)});
        break;
      case 1:
        st.sql = "SELECT COUNT(*) FROM tc WHERE src = " + Str(k);
        st.expected.push_back({num(static_cast<int64_t>(reach.size()))});
        break;
      default:
        st.sql = "SELECT t.dst, e.dst FROM tc t, edge e "
                 "WHERE t.src = " + Str(k) + " AND t.dst = e.src";
        for (int64_t r : reach) {
          for (int64_t x : graph_.Out(r)) st.expected.push_back({num(r), num(x)});
        }
        break;
    }
    SortRows(&st.expected);
    return st;
  }

  std::vector<std::pair<std::string, int64_t>> Sizes() const override {
    return {{"nodes", graph_.nodes()},
            {"edge", static_cast<int64_t>(graph_.edges().size())}};
  }

 private:
  GraphModel graph_;
  Rng rng_;
  int64_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "olap_views") return std::make_unique<OlapViews>(seed);
  if (name == "oltp_mixed") return std::make_unique<OltpMixed>(seed);
  if (name == "recursive_reach") return std::make_unique<RecursiveReach>(seed);
  return nullptr;
}

}  // namespace perfbench
