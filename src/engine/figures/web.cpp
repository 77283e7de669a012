// Sec. 6 web browsing: page load time and energy over 5G vs 4G (Figs.
// 19-21), decision-tree interface selection (Table 6, Fig. 22), and the
// HTTP/2 multiplexing extension.
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/quantile_sketch.h"
#include "core/rng.h"
#include "core/stats.h"
#include "engine/figures/figure.h"
#include "web/page_load.h"
#include "web/selector.h"
#include "web/website.h"

namespace wild5g::engine::figures {

namespace {

/// Means of one bin of the corpus, as one Fig. 19 row.
struct BinMeans {
  double plt_4g = 0.0;
  double plt_5g = 0.0;
  double energy_4g = 0.0;
  double energy_5g = 0.0;
  int count = 0;

  void add(const web::SiteMeasurement& m) {
    plt_4g += m.plt_4g_s;
    plt_5g += m.plt_5g_s;
    energy_4g += m.energy_4g_j;
    energy_5g += m.energy_5g_j;
    ++count;
  }
  [[nodiscard]] std::vector<std::string> row(const std::string& label) const {
    return {label,
            std::to_string(count),
            Table::num(plt_4g / count, 2),
            Table::num(plt_5g / count, 2),
            Table::num(energy_4g / count, 2),
            Table::num(energy_5g / count, 2)};
  }
};

}  // namespace

// Figures 19 & 20: web page load time and radio energy over mmWave 5G vs
// 4G, binned by object count and total page size, plus CDF percentiles.
void fig19_20_web_qoe(FigureRun& run) {
  run.banner("Fig. 19 + Fig. 20", "Web QoE: PLT and energy, 5G vs 4G");
  run.paper(
      "5G always loads faster; 4G always burns less energy; both gaps widen"
      " with object count and page size (Fig. 19). The CDFs (Fig. 20)"
      " separate cleanly in both metrics.");

  Rng rng(run.seed);
  const auto corpus = web::generate_corpus(1500, rng);
  const auto device = power::DevicePowerProfile::s10();
  const auto measurements =
      web::measure_corpus(corpus, 8, device, rng, run.faults);

  // Fig. 19a: by object count.
  struct Bin {
    std::string label;
    int lo;
    int hi;
  };
  const std::vector<Bin> object_bins = {
      {"0-10", 0, 10}, {"11-100", 11, 100}, {"100-1000", 100, 1000}};
  Table fig19a("Fig. 19a: impact of # objects (means)");
  fig19a.set_header({"objects", "sites", "4G PLT s", "5G PLT s", "4G J",
                     "5G J"});
  for (const auto& bin : object_bins) {
    BinMeans means;
    for (const auto& m : measurements) {
      if (m.site.object_count < bin.lo || m.site.object_count > bin.hi) {
        continue;
      }
      means.add(m);
    }
    if (means.count == 0) continue;
    fig19a.add_row(means.row(bin.label));
  }
  run.report(fig19a);

  // Fig. 19b: by total page size.
  const std::vector<std::pair<std::string, std::pair<double, double>>>
      size_bins = {{"<1 MB", {0.0, 1.0}},
                   {"1-10 MB", {1.0, 10.0}},
                   {">10 MB", {10.0, 1e9}}};
  Table fig19b("Fig. 19b: impact of total page size (means)");
  fig19b.set_header({"page size", "sites", "4G PLT s", "5G PLT s", "4G J",
                     "5G J"});
  for (const auto& [label, range] : size_bins) {
    BinMeans means;
    for (const auto& m : measurements) {
      if (m.site.total_page_size_mb < range.first ||
          m.site.total_page_size_mb >= range.second) {
        continue;
      }
      means.add(m);
    }
    fig19b.add_row(means.row(label));
  }
  run.report(fig19b);

  // Fig. 20: CDF percentiles.
  stats::SampleAccumulator plt4, plt5, en4, en5;
  for (const auto& m : measurements) {
    plt4.add(m.plt_4g_s);
    plt5.add(m.plt_5g_s);
    en4.add(m.energy_4g_j);
    en5.add(m.energy_5g_j);
  }
  Table fig20("Fig. 20: CDF percentiles");
  fig20.set_header({"percentile", "4G PLT s", "5G PLT s", "4G J", "5G J"});
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    fig20.add_row({Table::num(p, 0), Table::num(plt4.percentile(p), 2),
                   Table::num(plt5.percentile(p), 2),
                   Table::num(en4.percentile(p), 2),
                   Table::num(en5.percentile(p), 2)});
  }
  run.report(fig20);

  if (run.faults != nullptr) {
    // Faulted runs only: the default document must match the golden.
    int failed_objects = 0;
    for (const auto& m : measurements) failed_objects += m.failed_objects;
    run.doc.metric("failed_objects", failed_objects);
    run.repro("object fetches failed under fault plan = " +
              std::to_string(failed_objects));
  }

  run.repro("median PLT: 5G " + Table::num(plt5.median(), 2) + " s vs 4G " +
            Table::num(plt4.median(), 2) + " s; median energy: 5G " +
            Table::num(en5.median(), 2) + " J vs 4G " +
            Table::num(en4.median(), 2) + " J");
}

// Figure 21: 4G's PLT penalty vs energy saving over 5G — how much energy
// choosing 4G saves, binned by how much extra page-load time it costs.
void fig21_penalty_saving(FigureRun& run) {
  run.banner("Fig. 21", "4G's PLT penalty vs energy saving over 5G");
  run.paper(
      "Even a 10% PLT penalty buys ~70% energy saving; the saving declines"
      " as the penalty bin grows but stays above ~50% out to 50-60%.");

  Rng rng(run.seed);
  const auto corpus = web::generate_corpus(1500, rng);
  const auto device = power::DevicePowerProfile::s10();
  const auto measurements = web::measure_corpus(corpus, 4, device, rng);

  Table table("Energy saving (%) by PLT-penalty bin");
  table.set_header({"penalty of additional PLT", "sites",
                    "mean energy saving %"});
  for (double lo = 0.0; lo < 60.0; lo += 10.0) {
    std::vector<double> savings;
    for (const auto& m : measurements) {
      const double penalty = 100.0 * (m.plt_4g_s - m.plt_5g_s) / m.plt_5g_s;
      if (penalty < lo || penalty >= lo + 10.0) continue;
      savings.push_back(100.0 * (m.energy_5g_j - m.energy_4g_j) /
                        m.energy_5g_j);
    }
    if (savings.size() < 5) continue;
    table.add_row({Table::num(lo, 0) + "-" + Table::num(lo + 10.0, 0) + "%",
                   std::to_string(savings.size()),
                   Table::num(stats::mean(savings), 1)});
  }
  run.report(table);

  run.repro(
      "the saving is largest in the lowest-penalty bin and declines with"
      " the penalty, matching the figure's takeaway that the slightest"
      " permissible PLT penalty yields large energy savings.");
}

// Table 6 + Figure 22: decision-tree radio interface selection for web
// browsing — per-QoE-model 4G/5G choice counts on the held-out test set,
// the learned trees for M1 and M4, and the resulting energy/PLT outcomes.
void table6_fig22_selector(FigureRun& run) {
  run.banner("Table 6 + Fig. 22", "DT radio-interface selection");
  run.paper(
      "Over 420 test websites: M1 (0.2/0.8) picks 5G for 401; M5 (0.8/0.2)"
      " picks 4G for all 420; intermediate models shift monotonically."
      " M1 splits on page size and dynamic-object share; M4 prefers 4G"
      " unless dynamic objects dominate (>76%). Selection saves 15-66%"
      " energy while improving overall QoE.");

  Rng rng(run.seed);
  const auto corpus = web::generate_corpus(1500, rng);
  const auto device = power::DevicePowerProfile::s10();
  auto measurements = web::measure_corpus(corpus, 8, device, rng);

  // 7:3 split, shuffled.
  rng.shuffle(std::span<web::SiteMeasurement>(measurements));
  const auto train_count =
      static_cast<std::size_t>(0.7 * measurements.size());
  const std::span<const web::SiteMeasurement> train(measurements.data(),
                                                    train_count);
  const std::span<const web::SiteMeasurement> test(
      measurements.data() + train_count, measurements.size() - train_count);

  Table table("Radio choices on the " + std::to_string(test.size()) +
              "-site test set");
  table.set_header({"model", "desired QoE", "alpha", "beta", "use 4G",
                    "use 5G", "accuracy", "energy saving %", "PLT penalty %"});

  std::vector<web::InterfaceSelector> selectors;
  for (const auto& weights : web::paper_qoe_models()) {
    web::InterfaceSelector selector(weights);
    Rng train_rng(run.seed + 77);
    selector.train(train, train_rng);
    const auto counts = selector.counts(test);
    const auto outcome = selector.outcome(test);
    table.add_row({weights.id, weights.description,
                   Table::num(weights.alpha, 1), Table::num(weights.beta, 1),
                   std::to_string(counts.use_4g),
                   std::to_string(counts.use_5g),
                   Table::num(selector.accuracy(test), 2),
                   Table::num(outcome.energy_saving_percent, 1),
                   Table::num(outcome.plt_penalty_percent, 1)});
    selectors.push_back(std::move(selector));
  }
  run.report(table);

  run.out << "Fig. 22a - M1 (high performance) decision tree:\n"
          << selectors[0].describe_tree() << "\n";
  run.out << "Fig. 22b - M4 (better energy saving) decision tree:\n"
          << selectors[3].describe_tree() << "\n";

  auto top_features = [](const web::InterfaceSelector& s) {
    const auto importances = s.feature_importances();
    const auto names = web::feature_names();
    std::string out;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (importances[i] > 0.15) {
        out += names[i] + "(" + Table::num(importances[i], 2) + ") ";
      }
    }
    return out.empty() ? std::string("-") : out;
  };
  run.repro("M1 dominant features: " + top_features(selectors[0]) +
            "(paper: PS, DNO)");
  run.repro("M4 dominant features: " + top_features(selectors[3]) +
            "(paper: NO, DNO)");
}

// Extension: HTTP/1.1 connection pools vs HTTP/2 multiplexing over mmWave
// 5G and 4G (the protocol-version angle of Narayanan et al. [39], applied
// to this paper's Sec. 6 corpus).
void extension_http2(FigureRun& run) {
  run.banner("Extension", "HTTP/1.1 pool vs HTTP/2 multiplexing");
  run.paper(
      "Request round-trips dominate PLT for object-heavy pages; mmWave's"
      " bandwidth only pays off once multiplexing removes them. Energy"
      " follows PLT: faster loads also spend less 5G base power.");

  Rng rng(run.seed);
  const auto corpus = web::generate_corpus(300, rng);
  const auto device = power::DevicePowerProfile::s10();

  Table& table = run.doc.open_table(
      "Corpus means (300 sites, 2 loads each)",
      {"radio", "protocol", "mean PLT s", "p90 PLT s", "mean energy J"});
  for (const bool is_5g : {true, false}) {
    for (const bool multiplexed : {false, true}) {
      auto config = is_5g ? web::mmwave_page_config()
                          : web::lte_page_config();
      config.multiplexed = multiplexed;
      stats::SampleAccumulator plts;
      double energy = 0.0;
      for (const auto& site : corpus) {
        for (int rep = 0; rep < 2; ++rep) {
          const auto result = web::load_page(site, config, device, rng);
          plts.add(result.plt_s);
          energy += result.energy_j;
        }
      }
      table.add_row({is_5g ? "mmWave 5G" : "4G",
                     multiplexed ? "HTTP/2" : "HTTP/1.1",
                     Table::num(plts.mean(), 2),
                     Table::num(plts.percentile(90.0), 2),
                     Table::num(energy / (2.0 * corpus.size()), 2)});
    }
  }
  table.print(run.out);

  run.repro(
      "multiplexing compresses the 4G-vs-5G PLT gap on small pages and"
      " widens 5G's lead on heavy ones (bandwidth finally binds); both"
      " radios save energy in proportion to the PLT cut.");
}

}  // namespace wild5g::engine::figures
