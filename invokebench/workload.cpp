// The four workloads on the real stack: inputs, deployment, the closed
// client loop and the output checks.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include "bench.hpp"
#include "functions/library.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/zlite.hpp"

namespace invokebench {

namespace {

constexpr std::size_t kPool = 64;  // distinct generated inputs, cycled
// The world is the default BentoWorld and tenants sit on the same boxes
// for every seed: an op's wall latency scales with how many other clients'
// ops overlap its simulated round trip, so a per-seed topology would make
// op_wall_us_p50 a property of the seed rather than of the program.
constexpr std::uint64_t kPlacementSeed = 0x5eed;
constexpr std::uint64_t kWarmOps = 4;
constexpr std::int64_t kLateSimUs = 60'000'000;  // a reply later than this fails
constexpr char kEchoSource[] = "def on_message(msg):\n    api.send(msg)\n";

// Ceilings the permissive node policy allows, so a long run never trips a
// cumulative network or instruction quota.
void widen(bc::FunctionManifest& m) {
  m.resources.cpu_instructions = 2'000'000'000ULL;
  m.resources.network_bytes = 4ull << 30;
}

}  // namespace

std::string make_page(std::uint64_t seed, std::size_t target) {
  bu::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x9a6e);
  std::vector<std::string> words;
  for (int i = 0; i < 96; ++i) {
    std::string w;
    const auto len = rng.uniform(3, 9);
    for (std::uint64_t j = 0; j < len; ++j) {
      w.push_back(static_cast<char>('a' + rng.uniform(0, 25)));
    }
    words.push_back(std::move(w));
  }
  std::string page = "<html><body>\n";
  while (page.size() < target) {
    page += "<p>";
    const auto n = rng.uniform(8, 24);
    for (std::uint64_t i = 0; i < n; ++i) {
      page += words[rng.uniform(0, words.size() - 1)];
      page += ' ';
    }
    page += "</p>\n";
  }
  page += "</body></html>\n";
  return page;
}

namespace {

// kPool sizes covering [lo, hi] evenly — one per equal-width stratum, at a
// seeded point inside it, in seeded order — so every seed has the same
// size mix and only the bytes, exact sizes and order change.
std::vector<std::size_t> spread_sizes(bu::Rng& rng, std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> sizes;
  const double width = static_cast<double>(hi - lo) / kPool;
  for (std::size_t i = 0; i < kPool; ++i) {
    sizes.push_back(lo + static_cast<std::size_t>(width * (static_cast<double>(i) + rng.uniform01())));
  }
  rng.shuffle(sizes);
  return sizes;
}

// Witness digest: a cheap 64-bit mix over reply bytes (not cryptographic;
// it only has to differ when the bytes differ).
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

std::uint64_t mix_bytes(std::uint64_t h, const bu::Bytes& b) {
  std::size_t i = 0;
  for (; i + 8 <= b.size(); i += 8) {
    std::uint64_t v;
    std::memcpy(&v, b.data() + i, 8);
    h = mix(h, v);
  }
  std::uint64_t tail = b.size();
  for (; i < b.size(); ++i) tail = (tail << 8) | b[i];
  return mix(h, tail);
}

bool equals(const bu::Bytes& a, const bu::Bytes& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::EchoSmall: return "echo_small";
    case Kind::DropboxSealed: return "dropbox_sealed";
    case Kind::BrowserPadded: return "browser_padded";
    case Kind::SessionChurn: return "session_churn";
  }
  return "?";
}

std::optional<Kind> kind_from_name(std::string_view name) {
  for (Kind k : {Kind::EchoSmall, Kind::DropboxSealed, Kind::BrowserPadded,
                 Kind::SessionChurn}) {
    if (name == kind_name(k)) return k;
  }
  return std::nullopt;
}

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Counters snapshot_counters() {
  Counters out;
  for (const auto& c : bento::obs::registry().snapshot().counters) out[c.name] = c.value;
  return out;
}

Counters diff(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

Inputs make_inputs(const Config& config) {
  Inputs in;
  bu::Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 0x1234567ULL);
  in.get_msg = bu::to_bytes("GET:");
  auto add_blob = [&in](bu::Bytes blob) {
    bu::Bytes put = bu::to_bytes("PUT:");
    bu::append(put, blob);
    in.put_msgs.push_back(std::move(put));
    in.blobs.push_back(std::move(blob));
  };
  switch (config.kind) {
    case Kind::EchoSmall:
      in.image = bc::kImagePython;
      in.manifest.name = "echo";
      in.manifest.image = in.image;
      in.manifest.resources.memory_bytes = 8 << 20;
      in.manifest.resources.disk_bytes = 0;
      in.source = kEchoSource;
      for (std::size_t i = 0; i < kPool; ++i) in.blobs.push_back(rng.bytes(config.echo_payload));
      break;
    case Kind::DropboxSealed:
      in.manifest = bento::functions::dropbox_manifest();
      in.image = in.manifest.image;
      in.source = bento::functions::dropbox_source();
      for (std::size_t size : spread_sizes(rng, 1 << 10, 32 << 10)) add_blob(rng.bytes(size));
      break;
    case Kind::BrowserPadded:
      in.manifest = bento::functions::browser_manifest();
      in.image = in.manifest.image;
      in.source = bento::functions::browser_source();
      in.page = make_page(config.seed, 64 << 10);
      in.page_compressed = bu::zlite::compress(bu::to_bytes(in.page));
      in.web_addr = bento::tor::parse_addr("93.184.216.34");
      in.browser_request = bu::to_bytes("http://93.184.216.34/page " +
                                        std::to_string(in.padding));
      break;
    case Kind::SessionChurn:
      in.manifest = bento::functions::dropbox_manifest();
      in.image = in.manifest.image;
      in.source = bento::functions::dropbox_source();
      for (std::size_t size : spread_sizes(rng, 64, 512)) add_blob(rng.bytes(size));
      break;
  }
  widen(in.manifest);
  return in;
}

// ---- tenants ----

struct Tenant {
  std::uint32_t index = 0;
  bc::BentoWorld::Client client;
  std::string box;
  std::shared_ptr<bc::BentoConnection> conn;
  std::optional<bc::TokenPair> tokens;
  std::uint64_t next_op = 0;  // input index, never reset: runs stay distinct
  std::uint64_t window_ops = 0;
  bool in_flight = false;
  bool verified_page = false;
  std::size_t last_put = SIZE_MAX;  // dropbox: blob index of the last PUT
  std::size_t pending = 0;          // input index of the op in flight
  std::int64_t start_wall_ns = 0;
  std::int64_t start_sim_us = 0;
};

Stack::Stack(const Config& config, const Inputs& inputs) : config_(config), in_(inputs) {
  bc::BentoWorldOptions options;
  if (config_.kind == Kind::DropboxSealed) {
    options.persistent_store = true;
    options.store_options.cache_bytes = config_.cache_bytes;
  }
  world_ = std::make_unique<bc::BentoWorld>(options);
  world_->start();
  if (config_.kind == Kind::BrowserPadded) {
    const std::string* page = &in_.page;
    world_->bed().add_web_server(in_.web_addr, [page](const std::string&) {
      return std::optional<bu::Bytes>(bu::to_bytes(*page));
    });
  }
  deploy();
  // Warm-up: a few checked ops per client, untimed.
  const Window warm = run_window(0, config_.kind == Kind::SessionChurn ? 1 : kWarmOps);
  if (warm.failed > 0) throw std::runtime_error("warm-up failed: " + warm.failures.front());
}

Stack::~Stack() = default;

void Stack::deploy() {
  std::vector<std::string> candidates;
  for (const auto& relay : world_->bed().consensus().relays) {
    if (!relay.flags.bento) continue;
    if (config_.kind == Kind::BrowserPadded && !relay.flags.exit) continue;
    candidates.push_back(relay.fingerprint());
  }
  if (candidates.empty()) throw std::runtime_error("no candidate Bento boxes");
  bu::Rng rng(kPlacementSeed);
  for (int i = 0; i < config_.clients; ++i) {
    auto t = std::make_unique<Tenant>();
    t->index = static_cast<std::uint32_t>(i);
    t->client = world_->make_client("client" + std::to_string(i));
    t->box = candidates[rng.uniform(0, candidates.size() - 1)];
    tenants_.push_back(std::move(t));
  }
  if (config_.kind == Kind::SessionChurn) return;  // sessions are the ops

  auto& sim = world_->sim();
  for (auto& t : tenants_) {
    Tenant* tp = t.get();
    tp->client.bento->connect(tp->box, [tp](std::shared_ptr<bc::BentoConnection> c) {
      tp->conn = std::move(c);
    });
  }
  sim.run();
  int spawned = 0;
  for (auto& t : tenants_) {
    if (t->conn == nullptr) throw std::runtime_error("deploy: connect failed");
    t->conn->spawn(in_.image, [&spawned](bool ok, std::string) { spawned += ok ? 1 : 0; });
  }
  sim.run();
  if (spawned != config_.clients) throw std::runtime_error("deploy: spawn failed");
  for (auto& t : tenants_) {
    Tenant* tp = t.get();
    tp->conn->upload(in_.manifest, in_.source, "", {},
                     [tp](std::optional<bc::TokenPair> tokens, std::string) {
                       tp->tokens = std::move(tokens);
                     });
  }
  sim.run();
  for (auto& t : tenants_) {
    if (!t->tokens.has_value()) throw std::runtime_error("deploy: upload failed");
    Tenant* tp = t.get();
    t->conn->set_output_handler([this, tp](bu::Bytes out) { on_reply(*tp, out); });
  }
}

Window Stack::run_window(double seconds, std::uint64_t per_client) {
  Window w;
  window_ = &w;
  per_client_ = per_client;
  for (auto& t : tenants_) {
    t->window_ops = 0;
    t->verified_page = false;
  }
  const Counters before = snapshot_counters();
  const heap::Stats heap0 = heap::stats();
  const double cpu0 = cpu_seconds();
  const std::int64_t wall0 = wall_ns();
  deadline_ns_ = wall0 + static_cast<std::int64_t>(seconds * 1e9);
  for (auto& t : tenants_) start_op(*t);
  world_->sim().run();
  const std::int64_t wall1 = wall_ns();
  const double cpu1 = cpu_seconds();
  const heap::Stats heap1 = heap::stats();
  w.counters = diff(snapshot_counters(), before);
  w.wall_s = static_cast<double>(wall1 - wall0) * 1e-9;
  w.cpu_s = cpu1 - cpu0;
  w.allocs = heap1.allocs - heap0.allocs;
  for (auto& t : tenants_) {
    if (!t->in_flight) continue;
    t->in_flight = false;
    w.failed += 1;
    if (w.failures.size() < 8) {
      w.failures.push_back("client" + std::to_string(t->index) + ": reply missing");
    }
  }
  window_ = nullptr;
  return w;
}

void Stack::start_op(Tenant& t) {
  const bool done = per_client_ > 0 ? t.window_ops >= per_client_
                                    : wall_ns() >= deadline_ns_;
  if (done) return;
  t.in_flight = true;
  t.pending = t.next_op++;
  t.start_wall_ns = wall_ns();
  t.start_sim_us = world_->sim().now().micros();
  window_->attempted += 1;
  if (config_.kind == Kind::SessionChurn) {
    start_session(t);
  } else {
    send_invoke(t);
  }
}

void Stack::send_invoke(Tenant& t) {
  const bu::Bytes* request = nullptr;
  const std::size_t slot = (t.index * 31 + t.pending) % kPool;
  switch (config_.kind) {
    case Kind::EchoSmall: request = &in_.blobs[slot]; break;
    case Kind::DropboxSealed:
      // PUT, GET, GET, GET: reads outnumber writes 3:1 and every GET
      // follows a PUT of the same tenant.
      if (t.pending % 4 == 0) {
        request = &in_.put_msgs[(t.index * 31 + t.pending / 4) % kPool];
        window_->puts += 1;
      } else {
        request = &in_.get_msg;
      }
      break;
    case Kind::BrowserPadded: request = &in_.browser_request; break;
    case Kind::SessionChurn: break;
  }
  t.conn->invoke(t.tokens->invocation.bytes(), *request);
}

bool Stack::check_page(const bu::Bytes& out, std::string* why) const {
  try {
    if (bu::to_string(bu::zlite::decompress(out)) != in_.page) {
      *why = "page reply does not decompress to the page";
      return false;
    }
  } catch (const bu::ParseError&) {
    *why = "page reply is not a zlite stream";
    return false;
  }
  if (out.size() % in_.padding != 0) {
    *why = "page reply of " + std::to_string(out.size()) + " B (page compressed to " +
           std::to_string(in_.page_compressed.size()) + " B) is not a multiple of the " +
           std::to_string(in_.padding) + " B padding";
    return false;
  }
  return true;
}

bool Stack::check_reply(Tenant& t, const bu::Bytes& out, std::string* why) {
  switch (config_.kind) {
    case Kind::EchoSmall:
      if (equals(out, in_.blobs[(t.index * 31 + t.pending) % kPool])) return true;
      *why = "echo reply differs from payload";
      return false;
    case Kind::DropboxSealed: {
      if (t.pending % 4 == 0) {
        if (bu::to_string(out) != "OK") {
          *why = "PUT not acknowledged";
          return false;
        }
        t.last_put = (t.index * 31 + t.pending / 4) % kPool;
        return true;
      }
      if (t.last_put != SIZE_MAX && equals(out, in_.blobs[t.last_put])) return true;
      *why = bu::to_string(out) == "MISSING" ? "GET after PUT returned MISSING"
                                              : "GET differs from the last PUT";
      return false;
    }
    case Kind::BrowserPadded: {
      // The compressor is deterministic, so a reply whose prefix is this
      // process's compression of the page decompresses to it; the first
      // reply of each client per window is decompressed in full anyway.
      const bool fast = out.size() % in_.padding == 0 &&
                        out.size() >= in_.page_compressed.size() &&
                        std::memcmp(out.data(), in_.page_compressed.data(),
                                    in_.page_compressed.size()) == 0;
      if (fast && t.verified_page) return true;
      t.verified_page = check_page(out, why);
      return t.verified_page;
    }
    case Kind::SessionChurn:
      if (bu::to_string(out) == "OK") return true;
      *why = "session PUT not acknowledged";
      return false;
  }
  return false;
}

void Stack::on_reply(Tenant& t, const bu::Bytes& out) {
  if (!t.in_flight || window_ == nullptr) return;  // a late duplicate
  std::string why;
  const bool ok = check_reply(t, out, &why);
  finish_op(t, ok, &out, why);
  start_op(t);
}

void Stack::finish_op(Tenant& t, bool ok, const bu::Bytes* reply, const std::string& why) {
  Window& w = *window_;
  t.in_flight = false;
  t.window_ops += 1;
  const std::int64_t now_ns = wall_ns();
  const std::int64_t sim_now = world_->sim().now().micros();
  const std::int64_t sim_lat = sim_now - t.start_sim_us;
  if (ok && sim_lat > kLateSimUs) ok = false;
  if (!ok) {
    w.failed += 1;
    if (w.failures.size() < 8) {
      w.failures.push_back("client" + std::to_string(t.index) + " op " +
                           std::to_string(t.pending) + ": " +
                           (why.empty() ? std::string("late reply") : why));
    }
    return;
  }
  w.completed += 1;
  w.wall_us.push(static_cast<double>(now_ns - t.start_wall_ns) * 1e-3);
  w.sim_us.push(static_cast<double>(sim_lat));
  w.digest = mix(mix(w.digest, t.index), t.pending);
  if (reply != nullptr) w.digest = mix_bytes(w.digest, *reply);
}

// ---- session_churn: one op = one full tenant lifecycle ----

void Stack::session_failed(Tenant& t, const std::string& why) {
  Tenant* tp = &t;
  world_->sim().after(bu::Duration::micros(0), [this, tp, why] {
    if (tp->conn != nullptr) tp->conn->close();
    tp->conn.reset();
    finish_op(*tp, false, nullptr, why);
    start_op(*tp);
  });
}

void Stack::start_session(Tenant& t) {
  Tenant* tp = &t;
  const std::size_t slot = (t.index * 31 + t.pending) % kPool;
  t.client.bento->connect(t.box, [this, tp, slot](std::shared_ptr<bc::BentoConnection> c) {
        if (c == nullptr) return session_failed(*tp, "connect failed");
    tp->conn = std::move(c);
    tp->conn->spawn(in_.image, [this, tp, slot](bool ok, std::string err) {
            if (!ok) return session_failed(*tp, "spawn failed: " + err);
      tp->conn->upload(in_.manifest, in_.source, "", {},
                       [this, tp, slot](std::optional<bc::TokenPair> tokens, std::string e) {
                if (!tokens.has_value()) return session_failed(*tp, "upload failed: " + e);
        tp->tokens = std::move(tokens);
        tp->conn->set_output_handler([this, tp](bu::Bytes out) {
                    tp->conn->set_output_handler(nullptr);
          std::string why;
          if (!check_reply(*tp, out, &why)) return session_failed(*tp, why);
          if (window_ != nullptr) window_->digest = mix_bytes(window_->digest, out);
          tp->conn->shutdown(tp->tokens->shutdown.bytes(), [this, tp](bool closed) {
                        if (!closed) return session_failed(*tp, "shutdown not ok");
            // Close outside the stream callback that delivered the reply.
            world_->sim().after(bu::Duration::micros(0), [this, tp] {
              tp->conn->close();
              tp->conn.reset();
                            finish_op(*tp, true, nullptr, "");
              start_op(*tp);
            });
          });
        });
        tp->conn->invoke(tp->tokens->invocation.bytes(), in_.put_msgs[slot]);
      });
    });
  });
}

// ---- serial phase probe ----

PhaseTimes Stack::probe_sessions(int sessions) {
  auto probe = world_->make_client("probe");
  const std::string box = tenants_.front()->box;
  auto& sim = world_->sim();
  std::vector<double> phases[5];
  const bu::Bytes& payload = config_.kind == Kind::EchoSmall       ? in_.blobs[0]
                             : config_.kind == Kind::BrowserPadded ? in_.browser_request
                                                                   : in_.put_msgs[0];
  for (int s = 0; s < sessions; ++s) {
    std::shared_ptr<bc::BentoConnection> conn;
    std::int64_t t0 = wall_ns();
    probe.bento->connect(box, [&conn](std::shared_ptr<bc::BentoConnection> c) {
      conn = std::move(c);
    });
    sim.run();
    std::int64_t t1 = wall_ns();
    if (conn == nullptr) throw std::runtime_error("probe: connect failed");
    bool spawned = false;
    conn->spawn(in_.image, [&spawned](bool ok, std::string) { spawned = ok; });
    sim.run();
    std::int64_t t2 = wall_ns();
    if (!spawned) throw std::runtime_error("probe: spawn failed");
    std::optional<bc::TokenPair> tokens;
    conn->upload(in_.manifest, in_.source, "", {},
                 [&tokens](std::optional<bc::TokenPair> t, std::string) {
                   tokens = std::move(t);
                 });
    sim.run();
    std::int64_t t3 = wall_ns();
    if (!tokens.has_value()) throw std::runtime_error("probe: upload failed");
    bool replied = false;
    conn->set_output_handler([&replied](bu::Bytes) { replied = true; });
    conn->invoke(tokens->invocation.bytes(), payload);
    sim.run();
    std::int64_t t4 = wall_ns();
    conn->set_output_handler(nullptr);
    if (!replied) throw std::runtime_error("probe: invoke got no reply");
    bool closed = false;
    conn->shutdown(tokens->shutdown.bytes(), [&closed](bool ok) { closed = ok; });
    sim.run();
    std::int64_t t5 = wall_ns();
    if (!closed) throw std::runtime_error("probe: shutdown failed");
    conn->close();
    sim.run();
    const std::int64_t marks[] = {t0, t1, t2, t3, t4, t5};
    for (int p = 0; p < 5; ++p) phases[p].push_back(static_cast<double>(marks[p + 1] - marks[p]) * 1e-3);
  }
  auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v.size() % 2 == 1 ? v[v.size() / 2] : (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
  };
  return PhaseTimes{median(phases[0]), median(phases[1]), median(phases[2]),
                    median(phases[3]), median(phases[4])};
}

}  // namespace invokebench
