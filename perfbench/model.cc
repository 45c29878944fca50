#include "model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>

namespace perfbench {

uint64_t Rng::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t Rng::Uniform(int64_t n) {
  return n <= 0 ? 0 : static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
}

int64_t Rng::Skewed(int64_t n) {
  double u = static_cast<double>(Next() >> 11) / static_cast<double>(1ULL << 53);
  auto v = static_cast<int64_t>(u * u * u * static_cast<double>(n));
  return std::clamp<int64_t>(v, 0, n - 1);
}

void SortRows(Rows* rows) { std::sort(rows->begin(), rows->end()); }

namespace {

bool SameCell(const Cell& a, const Cell& b) {
  if (a.index() != b.index()) return false;
  if (const auto* s = std::get_if<std::string>(&a)) {
    return *s == std::get<std::string>(b);
  }
  double x = std::get<double>(a);
  double y = std::get<double>(b);
  return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
}

std::string CellText(const Cell& c) {
  if (const auto* s = std::get_if<std::string>(&c)) return "'" + *s + "'";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", std::get<double>(c));
  return buf;
}

std::string RowText(const std::vector<Cell>& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    out += (i > 0 ? ", " : "") + CellText(row[i]);
  }
  return out + ")";
}

}  // namespace

bool SameRows(const Rows& expected, const Rows& actual, std::string* why) {
  if (expected.size() != actual.size()) {
    *why = "expected " + std::to_string(expected.size()) + " rows, got " +
           std::to_string(actual.size());
    return false;
  }
  for (size_t r = 0; r < expected.size(); ++r) {
    bool same = expected[r].size() == actual[r].size();
    for (size_t c = 0; same && c < expected[r].size(); ++c) {
      same = SameCell(expected[r][c], actual[r][c]);
    }
    if (!same) {
      *why = "row " + std::to_string(r) + ": expected " + RowText(expected[r]) +
             ", got " + RowText(actual[r]);
      return false;
    }
  }
  return true;
}

EmpDeptModel::EmpDeptModel(const EmpDeptSizes& sizes, uint64_t seed)
    : emp_count_(sizes.departments, 0),
      salary_sum_(sizes.departments, 0),
      proj_count_(sizes.departments, 0),
      proj_budget_sum_(sizes.departments, 0),
      mgr_count_(sizes.departments, 0),
      mgr_salary_sum_(sizes.departments, 0) {
  Rng rng(seed);
  for (int64_t d = 0; d < sizes.departments; ++d) {
    dept_budget_.push_back(50000.0 + static_cast<double>(rng.Uniform(1000000)));
  }
  for (int64_t e = 0; e < sizes.employees; ++e) {
    AddEmployee({e, e % sizes.departments,
                 20000.0 + static_cast<double>(rng.Uniform(100000)),
                 static_cast<double>(rng.Uniform(5000))});
  }
  // Department d is managed by employee d (see the class comment).
  for (int64_t d = 0; d < sizes.departments && d < sizes.employees; ++d) {
    ++mgr_count_[d];
    mgr_salary_sum_[d] += employees_[d].salary;
  }
  for (int64_t p = 0; p < sizes.projects; ++p) {
    AddProject({p, p % sizes.departments,
                1000.0 + static_cast<double>(rng.Uniform(500000))});
  }
}

void EmpDeptModel::AddEmployee(const Employee& e) {
  employees_.push_back(e);
  ++emp_count_[e.workdept];
  salary_sum_[e.workdept] += e.salary;
}

void EmpDeptModel::AddProject(const Project& p) {
  projects_.push_back(p);
  ++proj_count_[p.deptno];
  proj_budget_sum_[p.deptno] += p.budget;
}

void EmpDeptModel::SetSalary(int64_t empno, double salary) {
  Employee& e = employees_[empno];
  salary_sum_[e.workdept] += salary - e.salary;
  if (empno < departments()) {
    mgr_salary_sum_[e.workdept] += salary - e.salary;
  }
  e.salary = salary;
}

GraphModel::GraphModel(int64_t layers, int64_t width, int64_t degree,
                       uint64_t seed)
    : width_(width), out_(layers * width) {
  Rng rng(seed);
  std::vector<int64_t> perm(width);
  for (int64_t layer = 0; layer + 1 < layers; ++layer) {
    // Each round of edges maps the layer onto a seeded permutation of the
    // next one, so every node has exactly `degree` in- and out-edges.
    for (int64_t i = 0; i < degree; ++i) {
      for (int64_t j = 0; j < width; ++j) perm[j] = j;
      for (int64_t j = width - 1; j > 0; --j) std::swap(perm[j], perm[rng.Uniform(j + 1)]);
      for (int64_t j = 0; j < width; ++j) {
        int64_t src = layer * width + j;
        int64_t dst = (layer + 1) * width + perm[j];
        edges_.emplace_back(src, dst);
        out_[src].push_back(dst);
      }
    }
  }
}

std::vector<int64_t> GraphModel::Reach(int64_t src) const {
  std::vector<bool> seen(out_.size(), false);
  std::deque<int64_t> frontier = {src};
  std::vector<int64_t> reached;
  while (!frontier.empty()) {
    int64_t n = frontier.front();
    frontier.pop_front();
    for (int64_t next : out_[n]) {
      if (seen[next]) continue;
      seen[next] = true;
      reached.push_back(next);
      frontier.push_back(next);
    }
  }
  std::sort(reached.begin(), reached.end());
  return reached;
}

}  // namespace perfbench
