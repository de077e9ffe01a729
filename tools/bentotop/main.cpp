// bentotop — live terminal view of a sharded-simulator run.
//
// Usage:
//   bentotop --once <profile.json>                 render one frame and exit
//   bentotop <profile.json> [--interval-ms N] [--frames N]
//
// Reads a ShardProfile JSON (ShardProfileSnapshot::to_json — what a run
// writes via `--profile-out`/`--profile-wall-out`, or the flight recorder's
// profile dump) and renders obs::render_top_frame. In poll mode it re-reads
// the file every interval and repaints the terminal, so pointing it at the
// profile a long run rewrites gives a top(1)-style view; --frames bounds the
// loop for tests. A file that is momentarily missing or half-written (the
// writer is not atomic) keeps the previous frame instead of erroring out.

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/profile.hpp"

namespace {

int usage() {
  std::cerr << "usage: bentotop [--once] <profile.json> [--interval-ms N] "
               "[--frames N]\n";
  return 2;
}

bool load_frame(const std::string& path, bento::obs::ShardProfileSnapshot& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  return bento::obs::ShardProfileSnapshot::from_json(std::move(ss).str(), out);
}

}  // namespace

int main(int argc, char** argv) {
  bool once = false;
  long interval_ms = 1000;
  long frames = -1;  // -1: until interrupted
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--once") {
      once = true;
    } else if (arg == "--interval-ms" && i + 1 < argc) {
      interval_ms = std::stol(argv[++i]);
      if (interval_ms < 1) interval_ms = 1;
    } else if (arg == "--frames" && i + 1 < argc) {
      frames = std::stol(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      return usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  if (once) {
    bento::obs::ShardProfileSnapshot snap;
    if (!load_frame(path, snap)) {
      std::cerr << "bentotop: cannot read ShardProfile JSON from " << path
                << "\n";
      return 1;
    }
    bento::obs::render_top_frame(snap, std::cout);
    return 0;
  }

  bento::obs::ShardProfileSnapshot snap;
  bool have = false;
  for (long n = 0; frames < 0 || n < frames; ++n) {
    if (n > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    have = load_frame(path, snap) || have;  // keep last good frame
    std::cout << "\x1b[2J\x1b[H";
    if (have) {
      bento::obs::render_top_frame(snap, std::cout);
    } else {
      std::cout << "bentotop: waiting for " << path << "\n";
    }
    std::cout.flush();
  }
  return have ? 0 : 1;
}
