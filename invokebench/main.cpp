// invokebench entry point: sets the stack up several times, runs the timed
// window(s), checks that the intended layers ran, and prints one info line
// and, last, the result line (see README.md for the output contract).
//
//   invokebench --workload NAME --seed N --seconds S --trace 0|1
//               [--ops N] [--clients K] [--payload BYTES] [--cache-bytes BYTES]
//               [--git-rev REV]
#include <cpuid.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace invokebench {
namespace {

constexpr double kSettleS = 1.0;
constexpr int kSetups = 5;  // set-ups per run; setup_s is their median

// ---- minimal JSON output ----

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// An ordered JSON object built from already-encoded values.
class Obj {
 public:
  Obj& raw(const std::string& key, const std::string& encoded) {
    body_ += (body_.empty() ? "" : ", ") + str(key) + ": " + encoded;
    return *this;
  }
  Obj& n(const std::string& key, double v) { return raw(key, num(v)); }
  Obj& s(const std::string& key, const std::string& v) { return raw(key, str(v)); }
  Obj& metric(const std::string& key, double v, const std::string& unit) {
    return raw(key, "{\"value\": " + num(v) + ", \"unit\": " + str(unit) + "}");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- statistics ----

/// Nearest-rank percentile.
double percentile(const heap::Samples<double>& v, double q) {
  if (v.size() == 0) return 0;
  std::vector<double> s(v.begin(), v.end());
  std::sort(s.begin(), s.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(s.size())));
  return s[std::min(s.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---- context ----

std::string cpu_features() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  std::string out;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) != 0) {
    if ((b & (1u << 5)) != 0) out += "avx2 ";
    if ((b & (1u << 16)) != 0) out += "avx512f ";
    if ((b & (1u << 29)) != 0) out += "sha_ni ";
  }
  if (!out.empty()) out.pop_back();
  return out;
}

Obj context(const Config& config) {
  Obj o;
  o.s("workload", kind_name(config.kind))
      .n("seed", static_cast<double>(config.seed))
      .s("git_rev", config.git_rev)
      .s("build_type", INVOKEBENCH_BUILD_TYPE)
      .s("compiler", INVOKEBENCH_COMPILER)
      .s("cxx_flags", INVOKEBENCH_CXX_FLAGS)
      .s("cpu_features", cpu_features())
      .n("host_cpus", std::thread::hardware_concurrency())
      .n("clients", config.clients)
      .n("setup_trials", kSetups)
      .n("seconds", config.seconds)
      .n("fixed_ops_per_client", static_cast<double>(config.fixed_ops));
  return o;
}

// ---- checks: the workload's layers ran ----

std::uint64_t get(const Counters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

/// Sandbox trips of every kind: syscall and network denials, resource limits.
std::uint64_t denials(const Counters& c) {
  return get(c, "sandbox.syscall_denials") + get(c, "sandbox.net_denials") +
         get(c, "sandbox.resource_trips");
}

std::vector<std::string> layer_checks(const Config& config, const Inputs& in, const Window& w) {
  std::vector<std::string> bad;
  const Counters& c = w.counters;
  auto need = [&bad](bool ok, const std::string& what) {
    if (!ok) bad.push_back(what);
  };
  const std::uint64_t ops = w.attempted;
  need(get(c, "tor.origin.cells_sent") > 0, "tor: no cells sent");
  need(get(c, "bento.invokes") >= w.completed, "core: fewer server invokes than ops");
  need(get(c, "bento.token_failures") == 0, "core: token failures");
  need(denials(c) == 0, "sandbox: denials or resource trips");
  switch (config.kind) {
    case Kind::EchoSmall:
      need(get(c, "tor.circuits.built") == 0, "echo_small: circuits built (must be warm)");
      need(get(c, "store.append.frames") == 0, "echo_small: store touched");
      need(get(c, "tee.ecalls") == 0, "echo_small: ecalls on the python image");
      break;
    case Kind::DropboxSealed: {
      bool any_hit = false, any_miss = false;
      for (const bu::Bytes& b : in.blobs) (b.size() <= config.cache_bytes ? any_hit : any_miss) = true;
      need(get(c, "tee.ecalls") >= w.completed, "dropbox_sealed: fewer ecalls than ops");
      need(get(c, "store.append.frames") >= w.puts, "dropbox_sealed: PUTs not appended");
      need(!any_hit || get(c, "store.cache.hits") > 0, "dropbox_sealed: no cache hits");
      need(!any_miss || get(c, "store.cache.misses") > 0, "dropbox_sealed: no unseal misses");
      need(any_miss || get(c, "store.cache.misses") == 0,
           "dropbox_sealed: misses with the working set cached");
      break;
    }
    case Kind::BrowserPadded:
      need(get(c, "tee.ecalls") >= w.completed, "browser_padded: fewer ecalls than ops");
      need(get(c, "net.bytes") >= w.completed * in.page.size(),
           "browser_padded: the page did not cross the network");
      break;
    case Kind::SessionChurn:
      need(get(c, "tee.attest_rounds") == ops, "session_churn: attest rounds != ops");
      need(get(c, "tor.circuits.built") == ops, "session_churn: circuits built != ops");
      need(get(c, "bento.uploads") == ops, "session_churn: uploads != ops");
      need(get(c, "bento.shutdowns") == ops, "session_churn: shutdowns != ops");
      break;
  }
  return bad;
}

// ---- argument parsing ----

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "invokebench: " << why
            << "\nusage: invokebench --workload echo_small|dropbox_sealed|browser_padded|"
               "session_churn --seed N --seconds S --trace 0|1 [--ops N] [--clients K]"
               " [--payload BYTES] [--cache-bytes BYTES] [--git-rev REV]\n";
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    auto as_u64 = [&]() -> std::uint64_t {
      std::uint64_t v = 0;
      auto res = std::from_chars(value.data(), value.data() + value.size(), v);
      if (res.ec != std::errc() || res.ptr != value.data() + value.size()) {
        usage("bad number for " + flag + ": " + value);
      }
      return v;
    };
    if (flag == "--workload") {
      auto kind = kind_from_name(value);
      if (!kind.has_value()) usage("unknown workload " + value);
      config.kind = *kind;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = as_u64();
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      config.trace = as_u64() != 0;
    } else if (flag == "--ops") {
      config.fixed_ops = as_u64();
    } else if (flag == "--clients") {
      config.clients = static_cast<int>(as_u64());
    } else if (flag == "--payload") {
      config.echo_payload = as_u64();
    } else if (flag == "--cache-bytes") {
      config.cache_bytes = as_u64();
    } else if (flag == "--git-rev") {
      config.git_rev = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (config.clients < 1 || !(config.seconds > 0)) {
    usage("--clients and --seconds must be positive");
  }
  return config;
}

// ---- the per-layer ledger ----

/// `cpu_u` and `cpu_t`: CPU µs per op of the untraced and traced windows.
Obj per_layer(const Config& config, const Window& wt, const LayerTimes& t, const PhaseTimes& ph,
              double cpu_u, double cpu_t) {
  const Counters& c = wt.counters;
  const double ops = static_cast<double>(std::max<std::uint64_t>(wt.completed, 1));
  auto per_op = [&](std::uint64_t v) { return static_cast<double>(v) / ops; };
  auto ratio = [](std::uint64_t hits, std::uint64_t total) {
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  };
  const std::uint64_t hits = get(c, "tor.recognition.hits");
  const std::uint64_t misses = get(c, "tor.recognition.misses");
  const std::uint64_t circuits = get(c, "tor.circuits.built");
  const std::uint64_t attests = get(c, "tee.attest_rounds");
  const std::uint64_t invokes = get(c, "bento.invokes");
  const std::uint64_t uploads = get(c, "bento.uploads");
  const std::uint64_t c_hits = get(c, "store.cache.hits");
  const std::uint64_t c_misses = get(c, "store.cache.misses");
  const std::uint64_t frames = get(c, "store.append.frames");
  const bool sgx = config.kind != Kind::EchoSmall;

  // Modular exponentiations per construct, read off the code: an ntor hop
  // is 6 (client: generate + 2 shared; relay: generate + 2 shared), a
  // 3-hop circuit 18; an attested spawn is 7 (channel DH 4, IAS report
  // signature 1, client verify 2). One "DH call" is generate + shared = 2.
  const double dh_calls = (9.0 * static_cast<double>(circuits) +
                           3.5 * static_cast<double>(attests)) / ops;
  const double msgs = 2.0 * per_op(invokes + uploads + get(c, "bento.shutdowns") + attests);
  const double zlite_calls = config.kind == Kind::BrowserPadded ? per_op(invokes) : 0.0;

  const double ledger_sim = per_op(get(c, "sim.events")) * t.sim_us_per_event;
  const double ledger_tor = per_op(hits + misses) * t.tor_crypt_us_per_cell_hop;
  const double ledger_crypto = dh_calls * t.dh_us_per_call;
  const double ledger_core = msgs * t.codec_us_per_msg;
  const double ledger_tee = (sgx ? 2.0 * per_op(uploads) : 0.0) * t.channel_us_per_msg;
  const double script_invoke =
      std::max(0.0, t.on_message_us - (zlite_calls > 0 ? t.zlite_compress_us : 0.0));
  const double ledger_script =
      per_op(invokes) * script_invoke + per_op(uploads) * t.parse_analyze_us;
  const double ledger_store = per_op(frames) * t.put_us + per_op(c_hits) * t.get_hit_us +
                              per_op(c_misses) * t.get_miss_us;
  const double ledger_util = zlite_calls * t.zlite_compress_us;
  const double attributed = ledger_sim + ledger_tor + ledger_crypto + ledger_core +
                            ledger_tee + ledger_script + ledger_store + ledger_util;

  Obj m;
  m.metric("sim.events_per_op", per_op(get(c, "sim.events")), "count")
      .metric("net.messages_per_op", per_op(get(c, "net.messages")), "count")
      .metric("net.bytes_per_op", per_op(get(c, "net.bytes")), "B")
      .metric("sim.us_per_event", t.sim_us_per_event, "us")
      .metric("tor.cells_per_op",
              per_op(get(c, "tor.origin.cells_sent") + get(c, "tor.origin.cells_received")),
              "count")
      .metric("tor.cell_hops_per_op", per_op(hits + misses), "count")
      .metric("tor.circuits_per_op", per_op(circuits), "count")
      .metric("tor.recognition_hit_ratio", ratio(hits, hits + misses), "ratio")
      .metric("tor.crypt_us_per_cell_hop", t.tor_crypt_us_per_cell_hop, "us")
      .metric("crypto.dh_us_per_call", t.dh_us_per_call, "us")
      .metric("crypto.dh_calls_per_op", dh_calls, "count")
      .metric("crypto.aead_us_per_kib", t.aead_us_per_kib, "us")
      .metric("core.codec_us_per_msg", t.codec_us_per_msg, "us")
      .metric("core.msgs_per_op", msgs, "count")
      .metric("core.token_failures_per_op", per_op(get(c, "bento.token_failures")), "count")
      .metric("core.connect_us", ph.connect_us, "us")
      .metric("core.spawn_us", ph.spawn_us, "us")
      .metric("core.upload_us", ph.upload_us, "us")
      .metric("core.invoke_us", ph.invoke_us, "us")
      .metric("core.shutdown_us", ph.shutdown_us, "us")
      .metric("tee.ecalls_per_op", per_op(get(c, "tee.ecalls")), "count")
      .metric("tee.attest_rounds_per_op", per_op(attests), "count")
      .metric("tee.channel_us_per_msg", t.channel_us_per_msg, "us")
      .metric("script.parse_analyze_us", t.parse_analyze_us, "us")
      .metric("script.on_message_us", t.on_message_us, "us")
      .metric("store.frames_per_op", per_op(frames), "count")
      .metric("store.bytes_per_op", per_op(get(c, "store.append.bytes")), "B")
      .metric("store.cache_hit_ratio", ratio(c_hits, c_hits + c_misses), "ratio")
      .metric("store.compactions_per_op", per_op(get(c, "store.compact.runs")), "count")
      .metric("store.put_us", t.put_us, "us")
      .metric("store.get_hit_us", t.get_hit_us, "us")
      .metric("store.get_miss_us", t.get_miss_us, "us")
      .metric("sandbox.denials_per_op", per_op(denials(c)), "count")
      .metric("util.zlite_compress_us", t.zlite_compress_us, "us")
      .metric("ledger.attributed_us_per_op", attributed, "us")
      .metric("ledger.unattributed_us_per_op", cpu_u - attributed, "us")
      .metric("trace.overhead_pct", (cpu_t / cpu_u - 1.0) * 100.0, "%");
  return m;
}

struct E2e {
  double ops_per_s, cpu_us_per_op, p50, p99, allocs_per_op;
};

/// The end-to-end figures of a window: every op it completed counts.
E2e figures(const Window& w) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(w.completed, 1));
  return E2e{static_cast<double>(w.completed) / w.wall_s, w.cpu_s * 1e6 / ops,
             percentile(w.wall_us, 0.50), percentile(w.wall_us, 0.99),
             static_cast<double>(w.allocs) / ops};
}

int run(const Config& config) {
  const Inputs inputs = make_inputs(config);

  // Set-up, several times; the last stack is the one measured. The heap
  // high-water restarts right before it, so peak_heap_mb covers one world.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    if (i == kSetups - 1) heap::reset_peak();
    const std::int64_t t0 = wall_ns();
    stack = std::make_unique<Stack>(config, inputs);
    setup_s.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
  }

  // A short untimed closed loop first, so the timed window starts with the
  // event pool, link queues and allocator arenas at their working size.
  const Window settle = stack->run_window(config.fixed_ops > 0 ? 0 : kSettleS,
                                          config.fixed_ops > 0 ? 1 : 0);
  const double window_s = config.trace ? config.seconds / 2 : config.seconds;
  Window wu = stack->run_window(window_s, config.fixed_ops);
  const double peak_mib = static_cast<double>(heap::stats().peak) / (1 << 20);

  Window* checked = &wu;
  Window wt;
  LayerTimes layer_times;
  PhaseTimes phases;
  if (config.trace) {
    // The traced window runs with the program's own flight recorder on,
    // every event kind: the client API's root spans, the server, relay and
    // store spans under them, and the per-cell trace points. The ring is
    // preallocated here and wraps, so its cost per op holds in a long run.
    bento::obs::recorder().enable();
    bento::obs::recorder().set_mask(bento::obs::Recorder::mask_all());
    wt = stack->run_window(window_s, config.fixed_ops);
    bento::obs::recorder().disable();
    checked = &wt;
    phases = stack->probe_sessions(8);
    layer_times = time_layers(config, inputs);
  }

  std::vector<std::string> failures = settle.failures;
  for (const Window* w : {&wu, &wt}) {
    failures.insert(failures.end(), w->failures.begin(), w->failures.end());
  }
  std::vector<std::string> layer_bad = layer_checks(config, inputs, wu);
  if (config.trace) {
    for (const std::string& b : layer_checks(config, inputs, wt)) layer_bad.push_back(b);
  }
  const std::uint64_t attempted = settle.attempted + wu.attempted + wt.attempted;
  const std::uint64_t failed = settle.failed + wu.failed + wt.failed;
  const bool correct = failed == 0 && layer_bad.empty() && wu.completed > 0 &&
                       (!config.trace || wt.completed > 0);

  const E2e e = figures(wu);
  Obj e2e;
  e2e.metric("ops_per_s", e.ops_per_s, "1/s")
      .metric("cpu_us_per_op", e.cpu_us_per_op, "us")
      .metric("op_wall_us_p50", e.p50, "us")
      .metric("op_wall_us_p99", e.p99, "us")
      .metric("setup_s", median(setup_s), "s")
      .metric("allocs_per_op", e.allocs_per_op, "count")
      .metric("peak_heap_mb", peak_mib, "MiB");

  auto join = [](const std::vector<std::string>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + str(v[i]);
    return out + "]";
  };
  std::string setups = "[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) setups += (i ? ", " : "") + num(setup_s[i]);
  setups += "]";
  std::ostringstream digest;
  digest << std::hex << checked->digest;

  Obj info = context(config);
  info.raw("end_to_end", e2e.text())
      .n("op_wall_samples", static_cast<double>(wu.wall_us.size()))
      .n("failed_frac", attempted == 0 ? 1.0 : static_cast<double>(failed) /
                                                   static_cast<double>(attempted))
      .raw("setup_s_trials", setups)
      .n("sim_latency_us_p50", percentile(checked->sim_us, 0.50))
      .n("sim_latency_us_p99", percentile(checked->sim_us, 0.99))
      .s("reply_digest", digest.str())
      .raw("failures", join(failures))
      .raw("layer_check_failures", join(layer_bad));
  if (config.trace) {
    info.n("traced_ops", static_cast<double>(wt.completed));
  }
  std::cout << "{\"info\": " << info.text() << "}\n";

  Obj result;
  result.raw("correct", correct ? "true" : "false")
      .n("attempted", static_cast<double>(attempted))
      .n("failed", static_cast<double>(failed))
      .raw("metrics",
           config.trace ? per_layer(config, wt, layer_times, phases, e.cpu_us_per_op,
                                    figures(wt).cpu_us_per_op)
                                .text()
                        : e2e.text());
  std::cout << result.text() << std::endl;
  return 0;
}

}  // namespace
}  // namespace invokebench

int main(int argc, char** argv) {
  try {
    return invokebench::run(invokebench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "invokebench: " << e.what() << "\n";
    return 1;
  }
}
