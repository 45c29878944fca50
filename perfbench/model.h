// The benchmark's own model of the data it loads: seeded generators for the
// employee/department/project corpus and the layered edge graph, and the
// reference answers the oracle checks every statement against. Nothing here
// includes or calls engine code, so an engine bug cannot hide in both the
// result and its reference.

#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace perfbench {

/// splitmix64: the same seed gives the same stream on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  int64_t Uniform(int64_t n);
  /// Skewed in [0, n): n * u^3 for uniform u, so P(v < x) = (x/n)^(1/3)
  /// and low values are hot.
  int64_t Skewed(int64_t n);

 private:
  uint64_t state_;
};

/// One result cell as the oracle sees it: a number or a string.
using Cell = std::variant<double, std::string>;
using Rows = std::vector<std::vector<Cell>>;

/// Sorts `rows` into a canonical order (lexicographic, exact) so two bags
/// can be compared row by row.
void SortRows(Rows* rows);

/// True when the sorted bags hold the same rows, numbers compared with a
/// relative tolerance of 1e-9. On mismatch *why names the first difference.
bool SameRows(const Rows& expected, const Rows& actual, std::string* why);

struct EmpDeptSizes {
  int64_t departments = 0;
  int64_t employees = 0;
  int64_t projects = 0;
};

struct Employee {
  int64_t empno;
  int64_t workdept;
  double salary;
  double bonus;
};

struct Project {
  int64_t projno;
  int64_t deptno;
  double budget;
};

/// department(deptno, deptname, mgrno, budget): department d is named
/// "Dept<d>" and managed by employee d. Employee e and project p work in
/// department e % departments and p % departments, so every department
/// has the same fan-out and per-query cost does not hinge on the seed's
/// largest department.
/// employee(empno, empname, workdept, salary, bonus), named "Emp<empno>".
/// project(projno, projname, deptno, budget), named "Proj<projno>".
/// All money values are whole numbers, so engine sums are exact.
class EmpDeptModel {
 public:
  EmpDeptModel(const EmpDeptSizes& sizes, uint64_t seed);

  int64_t departments() const { return static_cast<int64_t>(dept_budget_.size()); }
  const std::vector<double>& dept_budgets() const { return dept_budget_; }
  const std::vector<Employee>& employees() const { return employees_; }
  const std::vector<Project>& projects() const { return projects_; }

  /// Mirrors a workload INSERT/UPDATE into the reference state.
  void AddEmployee(const Employee& e);
  void AddProject(const Project& p);
  /// Sets the salary of employee `empno` (which must exist).
  void SetSalary(int64_t empno, double salary);

  // Reference values per department d.
  int64_t EmpCount(int64_t d) const { return emp_count_[d]; }
  double AvgSalary(int64_t d) const { return salary_sum_[d] / emp_count_[d]; }
  /// The deptActivity view holds d when the employee x project join of d
  /// is non-empty; people and spend are its fan-out products.
  bool HasActivity(int64_t d) const {
    return emp_count_[d] > 0 && proj_count_[d] > 0;
  }
  double People(int64_t d) const {
    return static_cast<double>(emp_count_[d] * proj_count_[d]);
  }
  double Spend(int64_t d) const {
    return static_cast<double>(emp_count_[d]) * proj_budget_sum_[d];
  }
  /// Average salary of the managers working in d (avgMgrSal).
  bool HasManagers(int64_t d) const { return mgr_count_[d] > 0; }
  double AvgMgrSalary(int64_t d) const { return mgr_salary_sum_[d] / mgr_count_[d]; }

 private:
  std::vector<double> dept_budget_;
  std::vector<Employee> employees_;  // indexed by empno
  std::vector<Project> projects_;    // indexed by projno
  std::vector<int64_t> emp_count_;
  std::vector<double> salary_sum_;
  std::vector<int64_t> proj_count_;
  std::vector<double> proj_budget_sum_;
  std::vector<int64_t> mgr_count_;
  std::vector<double> mgr_salary_sum_;
};

/// edge(src, dst) over `layers` layers of `width` nodes (node n is in layer
/// n / width): every node outside the last layer has `degree` edges to
/// seeded nodes of the next layer, and every node outside the first has
/// `degree` edges in. The graph is acyclic, and the closure
/// from a node in layer l takes one fixpoint round per later layer.
class GraphModel {
 public:
  GraphModel(int64_t layers, int64_t width, int64_t degree, uint64_t seed);

  int64_t nodes() const { return static_cast<int64_t>(out_.size()); }
  int64_t width() const { return width_; }
  const std::vector<std::pair<int64_t, int64_t>>& edges() const { return edges_; }
  /// Out-neighbours of n, one entry per edge (duplicate edges repeat).
  const std::vector<int64_t>& Out(int64_t n) const { return out_[n]; }
  /// Nodes reachable from `src` over one or more edges, ascending (BFS).
  std::vector<int64_t> Reach(int64_t src) const;

 private:
  int64_t width_;
  std::vector<std::pair<int64_t, int64_t>> edges_;
  std::vector<std::vector<int64_t>> out_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
