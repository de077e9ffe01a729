// invokebench: the end-to-end invoke benchmark on the real Bento stack.
//
// A run deploys the default 10-relay BentoWorld, puts k simulated clients
// (4 by default) in a closed loop against one tenant each, and measures
// the host's wall-clock and CPU cost of the completed operations. The
// simulator is single-threaded and its simulated latencies are fixed by
// the network model, so simulated time is reported only as a determinism
// witness, never as a metric. See README.md for the workloads and metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/world.hpp"
#include "heap.hpp"
#include "tor/address.hpp"
#include "util/bytes.hpp"

namespace invokebench {

namespace bc = bento::core;
namespace bu = bento::util;

enum class Kind { EchoSmall, DropboxSealed, BrowserPadded, SessionChurn };

const char* kind_name(Kind kind);
std::optional<Kind> kind_from_name(std::string_view name);

struct Config {
  Kind kind = Kind::EchoSmall;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// >0: run exactly this many ops per client instead of a wall-clock
  /// window (the determinism witness and the sensitivity self-test).
  std::uint64_t fixed_ops = 0;
  int clients = 4;
  std::size_t echo_payload = 64;
  /// dropbox_sealed: the store's plaintext cache, per tenant.
  std::size_t cache_bytes = 16 << 10;
  std::string git_rev = "unknown";
};

/// Everything a run sends, generated from the seed.
struct Inputs {
  std::string image;
  bc::FunctionManifest manifest;
  std::string source;
  /// echo: the payloads; dropbox / churn: the blobs a PUT stores.
  std::vector<bu::Bytes> blobs;
  /// dropbox / churn: "PUT:" + blob, prebuilt.
  std::vector<bu::Bytes> put_msgs;
  bu::Bytes get_msg;
  // browser_padded
  std::string page;
  bu::Bytes page_compressed;  // zlite::compress(page), the reply's prefix
  bu::Bytes browser_request;
  std::size_t padding = 4096;
  bento::tor::Addr web_addr = 0;
};

Inputs make_inputs(const Config& config);

/// A seeded, compressible HTML page of about `target` bytes.
std::string make_page(std::uint64_t seed, std::size_t target);

using Counters = std::map<std::string, std::uint64_t>;

/// What one closed-loop window measured.
struct Window {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t puts = 0;  // dropbox_sealed: PUTs sent
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t allocs = 0;
  heap::Samples<double> wall_us;  // per completed op, send -> checked reply
  heap::Samples<double> sim_us;   // same in simulated time (witness only)
  std::uint64_t digest = 0;       // over every reply byte, in reply order
  Counters counters;              // registry deltas over the window
  std::vector<std::string> failures;  // first few failure reasons
};

/// Median client-API phase times of serial sessions, microseconds.
struct PhaseTimes {
  double connect_us = 0, spawn_us = 0, upload_us = 0, invoke_us = 0, shutdown_us = 0;
};

struct Tenant;

/// One deployed world: BentoWorld started, one tenant per client deployed
/// and warmed. Construction is the set-up the setup_s metric times.
class Stack {
 public:
  Stack(const Config& config, const Inputs& inputs);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Closed loop from idle until `seconds` of wall time pass (or, with
  /// per_client > 0, until each client completed that many ops), then
  /// drained to quiescence.
  Window run_window(double seconds, std::uint64_t per_client);
  /// Serial sessions of this workload's tenant, one client-API call at a
  /// time, each followed by running the world until its callback fired.
  PhaseTimes probe_sessions(int sessions);

 private:
  void deploy();
  void start_op(Tenant& t);
  void send_invoke(Tenant& t);
  void on_reply(Tenant& t, const bu::Bytes& out);
  void start_session(Tenant& t);
  void session_failed(Tenant& t, const std::string& why);
  void finish_op(Tenant& t, bool ok, const bu::Bytes* reply, const std::string& why);
  bool check_reply(Tenant& t, const bu::Bytes& out, std::string* why);
  bool check_page(const bu::Bytes& out, std::string* why) const;

  const Config& config_;
  const Inputs& in_;
  std::unique_ptr<bc::BentoWorld> world_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  // Window state.
  Window* window_ = nullptr;
  std::int64_t deadline_ns_ = 0;
  std::uint64_t per_client_ = 0;
};

Counters snapshot_counters();
Counters diff(const Counters& after, const Counters& before);
std::int64_t wall_ns();
double cpu_seconds();

/// Per-call costs of each layer's public API on this workload's inputs.
struct LayerTimes {
  double sim_us_per_event = 0;
  double tor_crypt_us_per_cell_hop = 0;
  double dh_us_per_call = 0;
  double aead_us_per_kib = 0;
  double codec_us_per_msg = 0;
  double channel_us_per_msg = 0;
  double parse_analyze_us = 0;
  double on_message_us = 0;
  double put_us = 0;
  double get_hit_us = 0;
  double get_miss_us = 0;
  double zlite_compress_us = 0;
};

LayerTimes time_layers(const Config& config, const Inputs& inputs);

}  // namespace invokebench
