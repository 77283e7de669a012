// Fixture: blocking two free-function hops below a locked call site. The
// lock is held where blk_chain_flush calls blk_chain_write, which reaches an
// ofstream through blk_chain_open; the rule follows free-function calls and
// names every hop. Must trip only lock-held-blocking-call, once.
#include <fstream>
#include <mutex>
#include <string>

namespace wild5g::fixture_lock_blocking_chain {

std::mutex g_blk_chain_m;

void blk_chain_open(const std::string& path) { std::ofstream out(path); }

void blk_chain_write(const std::string& path) { blk_chain_open(path); }

void blk_chain_flush(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_blk_chain_m);
  blk_chain_write(path);  // BAD
}

}  // namespace wild5g::fixture_lock_blocking_chain
