// Extension: busy-hour QoE degradation and handoff storms for co-moving
// UEs. The paper's QoE sections (Sec. 5) stream to a single moving UE; a
// commuting population moves — and hands off — together, so a loaded
// cell's users arrive at the next cell as a burst. This campaign drives
// the whole population at vehicular speed and sweeps the busy-hour
// activity dial, reporting rebuffering and storm intensity.
//
// Engine-backed (src/engine/): the emitter builds the registered
// "metro_qoe" campaign from the flags below and runs it under its
// supervision; the emitted document is byte-identical to the pre-engine
// monolithic main (the committed golden gates that).
//
// Flags (beyond the common --json/--threads/--faults/--deadline-ms):
//   --cells N   corridor length in cells   (default 12)
//   --ues N     UEs per cell               (default 100)
#include <iostream>

#include "bench_common.h"

using namespace wild5g;

int main(int argc, char** argv) {
  bench::MetricsEmitter emitter(argc, argv, "extension_metro_qoe");

  const auto campaign =
      emitter.make_campaign("metro_qoe", argc, argv, {"cells", "ues"});

  bench::banner("Extension",
                "Metro-scale busy hour: co-moving QoE degradation and"
                " handoff storms");
  bench::paper_note(
      "Sec. 5 streams 4K video (~25 Mbps demand) to one driving UE; at"
      " busy hour every vehicle on the corridor streams at once, and"
      " co-moving UEs cross cell edges together — handoffs arrive in"
      " storms, not one at a time.");

  const int code = emitter.run_campaign(*campaign);

  bench::measured_note(
      "rebuffering grows with the activity dial even though demand per UE"
      " is constant — more simultaneously active sharers shrink each"
      " share below the 25 Mbps demand line — and the co-moving population"
      " turns cell edges into handoff storms dozens deep in a single"
      " step.");
  return code;
}
