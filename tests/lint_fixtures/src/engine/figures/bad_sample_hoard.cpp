// Fixture: a figure campaign hoarding samples in a vector and querying the
// sort-on-query stats helpers. Virtual path puts this under
// src/engine/figures/, where the figure campaigns live, so it must trip
// exactly bench-sample-hoard (three call sites below).
// Never compiled — wild5g_lint input only (see test_lint_fixtures.cpp).
#include <vector>

namespace stats {
double percentile(const std::vector<double>& xs, double p);
double median(const std::vector<double>& xs);
double p95(const std::vector<double>& xs);
}  // namespace stats

double summarize_figure(const std::vector<double>& per_run_mbps) {
  std::vector<double> hoard(per_run_mbps);  // O(n) kept alive for one number
  const double p90 = stats::percentile(hoard, 90.0);
  const double mid = stats::median(hoard);
  return p90 + mid + stats::p95(hoard);
}
