// Extension: per-user throughput under shared-cell contention. The paper
// measures one UE against effectively unloaded cells (Sec. 3); this
// campaign asks the metro-scale question — what each user actually gets
// when a corridor of cells serves a whole population — by sweeping the
// configured background load and the number of sharers per cell.
//
// Engine-backed (src/engine/): the emitter builds the registered
// "metro_load" campaign from the flags below and runs it under its
// supervision, so the sweep inherits SIGINT/SIGTERM partial flushes and
// --deadline-ms for free. The emitted document is byte-identical to the
// pre-engine monolithic main — the committed golden gates that.
//
// Flags (beyond the common --json/--threads/--faults/--deadline-ms):
//   --cells N   corridor length in cells   (default 12)
//   --ues N     UEs per cell               (default 100)
#include <iostream>

#include "bench_common.h"

using namespace wild5g;

int main(int argc, char** argv) {
  bench::MetricsEmitter emitter(argc, argv, "extension_metro_load");

  const auto campaign =
      emitter.make_campaign("metro_load", argc, argv, {"cells", "ues"});

  bench::banner("Extension",
                "Metro-scale shared-cell contention: per-user throughput vs"
                " cell load");
  bench::paper_note(
      "Sec. 3 measures 1-2 UEs on effectively unloaded mid-band cells"
      " (~640 Mbps DL); commercial deployments schedule that capacity across"
      " every attached user, so per-user throughput is governed by cell"
      " load, not peak capacity.");

  const int code = emitter.run_campaign(*campaign);

  bench::measured_note(
      "per-user throughput falls monotonically with both dials: the"
      " background-load sweep shrinks every user's airtime share, and the"
      " sharer sweep splits the same cell capacity ever thinner — the"
      " unloaded single-UE numbers the paper reports are the best case, not"
      " the expectation.");
  return code;
}
