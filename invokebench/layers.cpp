// Per-layer costs, timed from outside the program: each layer's public API
// is called on this workload's own inputs (payloads, blobs, page, function
// source, store options) and the median per-call time of ten batches is
// reported. The ledger in main.cpp multiplies these by the
// per-op call counts read from the registry.
#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "core/container.hpp"
#include "core/message.hpp"
#include "crypto/dh.hpp"
#include "crypto/poly1305.hpp"
#include "script/analyzer.hpp"
#include "script/parser.hpp"
#include "sim/simulator.hpp"
#include "store/store.hpp"
#include "tee/conclave.hpp"
#include "tor/relaycrypto.hpp"
#include "util/rng.hpp"
#include "util/zlite.hpp"

namespace invokebench {

namespace {

namespace crypto = bento::crypto;
namespace store = bento::store;

constexpr double kBudgetS = 0.1;  // per timed call, calibration included
constexpr int kBatches = 10;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double seconds_since(std::int64_t t0) { return static_cast<double>(wall_ns() - t0) * 1e-9; }

/// Median µs per call of `f` over ten ~10 ms batches.
template <typename F>
double us_per_call(F&& f) {
  std::uint64_t n = 1;
  for (;;) {
    const std::int64_t t0 = wall_ns();
    for (std::uint64_t i = 0; i < n; ++i) f();
    if (seconds_since(t0) >= kBudgetS / kBatches) break;
    n *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = wall_ns();
    for (std::uint64_t i = 0; i < n; ++i) f();
    per_call.push_back(seconds_since(t0) * 1e6 / static_cast<double>(n));
  }
  return median(per_call);
}

/// The bytes this workload moves, for layers that take arbitrary input.
const std::vector<bu::Bytes>& payloads(const Inputs& in, std::vector<bu::Bytes>& scratch) {
  if (!in.blobs.empty()) return in.blobs;
  scratch = {bu::to_bytes(in.page)};
  return scratch;
}

// sim: schedule + dispatch of a self-rescheduling timer population.
double time_sim(std::uint64_t seed) {
  bento::sim::Simulator sim(seed);
  struct Tick {
    bento::sim::Simulator* sim;
    std::uint64_t* left;
    std::int64_t delay_us;
    void operator()() const {
      if (*left == 0) return;
      --*left;
      sim->after(bu::Duration::micros(delay_us), Tick{*this});
    }
  };
  constexpr std::uint64_t kEvents = 200'000;
  std::vector<double> per_event;
  for (int b = 0; b < kBatches + 1; ++b) {
    std::uint64_t left = kEvents;
    const std::uint64_t before = sim.events_executed();
    const std::int64_t t0 = wall_ns();
    for (int i = 0; i < 256; ++i) {
      sim.after(bu::Duration::micros(1 + i * 37 % 1000), Tick{&sim, &left, 1 + i * 53 % 997});
    }
    sim.run();
    const double dt = seconds_since(t0);
    if (b > 0) {  // the first batch warms the slab pool
      per_event.push_back(dt * 1e6 / static_cast<double>(sim.events_executed() - before));
    }
  }
  return median(per_event);
}

// tor: one forward cell through a 3-hop circuit on 509-byte payloads
// carrying this workload's bytes — the origin seals the exit's digest and
// adds three layers, each relay peels one and checks recognition (a cheap
// miss at the first two, a digest match at the exit) — per cell-hop. A
// backward cell does the mirror image of the same work.
double time_tor(const std::vector<bu::Bytes>& data) {
  namespace tor = bento::tor;
  std::vector<tor::LayerCrypto> origin, relay;
  for (int h = 0; h < 3; ++h) {
    const bu::Bytes secret(16, static_cast<std::uint8_t>(0x5a + h));
    const auto keys = tor::LayerKeys::derive(secret, "invokebench");
    origin.emplace_back(keys);
    relay.emplace_back(keys);
  }
  std::vector<std::array<std::uint8_t, tor::kCellPayloadLen>> cells;
  for (const bu::Bytes& d : data) {
    tor::RelayCell rc;
    rc.relay_cmd = tor::RelayCommand::Data;
    rc.stream_id = 1;
    rc.data.assign(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(d.size(), tor::kRelayDataMax)));
    cells.push_back(rc.pack());
  }
  std::size_t i = 0;
  const double per_cell = us_per_call([&] {
    auto p = cells[i++ % cells.size()];
    origin[2].seal_forward(p);
    for (int h = 2; h >= 0; --h) origin[static_cast<std::size_t>(h)].crypt_forward(p);
    for (std::size_t h = 0; h < 3; ++h) {
      relay[h].crypt_forward(p);
      if (relay[h].check_forward(p) != (h == 2)) {
        throw std::runtime_error("tor: recognition at the wrong hop");
      }
    }
  });
  return per_cell / 3;
}

// script: a ScriptFunction (interpreter + stdlib + module bindings) over a
// stub host that answers fs and net synchronously from memory.
class StubHost final : public bc::HostApi {
 public:
  explicit StubHost(const Inputs& in) : in_(in) {}
  void send(bu::ByteView payload) override { sent_ += payload.size(); }
  std::uint64_t reply_handle() override { return 1; }
  void send_to(std::uint64_t, bu::ByteView payload) override { sent_ += payload.size(); }
  void log(const std::string&) override {}
  void fs_write(const std::string& path, bu::ByteView data) override {
    files_[path].assign(data.begin(), data.end());
  }
  std::optional<bu::Bytes> fs_read(const std::string& path) override {
    auto it = files_.find(path);
    if (it == files_.end()) return std::nullopt;
    return it->second;
  }
  bool fs_remove(const std::string& path) override { return files_.erase(path) > 0; }
  std::vector<std::string> fs_list() override { return {}; }
  void http_get(const std::string&, HttpCallback done) override {
    done(true, bu::to_bytes(in_.page));
  }
  bu::Time now() override { return bu::Time::from_micros(0); }
  void after(bu::Duration, std::function<void()>) override {}
  bu::Bytes random_bytes(std::size_t n) override { return rng_.bytes(n); }
  void deploy(const DeploySpec&, DeployCallback done) override {
    done(false, {}, {});
  }
  void invoke_remote(const std::string&, bu::ByteView, bu::ByteView,
                     std::function<void(bu::Bytes)>) override {}
  bc::StemSession& stem() override {
    throw std::logic_error("stub host: no Stem session");
  }
  std::string box_fingerprint() const override { return "stub"; }
  std::size_t sent() const { return sent_; }

 private:
  const Inputs& in_;
  bu::Rng rng_{7};
  std::map<std::string, bu::Bytes> files_;
  std::size_t sent_ = 0;
};

std::vector<bu::Bytes> invoke_payloads(const Config& config, const Inputs& in) {
  switch (config.kind) {
    case Kind::EchoSmall: return in.blobs;
    case Kind::DropboxSealed: {
      std::vector<bu::Bytes> out;
      for (const bu::Bytes& put : in.put_msgs) {
        out.push_back(put);
        for (int g = 0; g < 3; ++g) out.push_back(in.get_msg);
      }
      return out;
    }
    case Kind::BrowserPadded: return {in.browser_request};
    case Kind::SessionChurn: return in.put_msgs;
  }
  return {};
}

double time_on_message(const Config& config, const Inputs& in) {
  StubHost host(in);
  bc::ScriptFunction fn(in.source, bento::script::InterpreterOptions{});
  fn.on_install(host, {});
  const std::vector<bu::Bytes> msgs = invoke_payloads(config, in);
  std::size_t i = 0;
  const double us = us_per_call([&] { fn.on_message(host, msgs[i++ % msgs.size()]); });
  if (host.sent() == 0) throw std::runtime_error("script: function sent nothing");
  return us;
}

// core: framing + message codec, on this workload's requests and replies.
double time_codec(const Config& config, const Inputs& in) {
  std::vector<bc::Message> msgs;
  const bu::Bytes token(32, 0x42);
  auto add = [&msgs, &token](bc::MsgType type, bu::Bytes blob) {
    bc::Message m;
    m.type = type;
    m.container_id = 7;
    m.token = token;
    m.blob = std::move(blob);
    msgs.push_back(std::move(m));
  };
  switch (config.kind) {
    case Kind::EchoSmall:
      for (const bu::Bytes& b : in.blobs) {
        add(bc::MsgType::Invoke, b);
        add(bc::MsgType::Output, b);
      }
      break;
    case Kind::DropboxSealed:
      for (std::size_t i = 0; i < in.blobs.size(); ++i) {
        add(bc::MsgType::Invoke, in.put_msgs[i]);
        add(bc::MsgType::Output, bu::to_bytes("OK"));
        for (int g = 0; g < 3; ++g) {
          add(bc::MsgType::Invoke, in.get_msg);
          add(bc::MsgType::Output, in.blobs[i]);
        }
      }
      break;
    case Kind::BrowserPadded: {
      add(bc::MsgType::Invoke, in.browser_request);
      bu::Bytes reply = in.page_compressed;
      reply.resize((reply.size() + in.padding - 1) / in.padding * in.padding);
      add(bc::MsgType::Output, std::move(reply));
      break;
    }
    case Kind::SessionChurn: {
      const bc::UploadBody body{in.manifest.serialize(), in.source, "", {}};
      add(bc::MsgType::Spawn, bu::Bytes(16, 1));
      add(bc::MsgType::SpawnReply, bu::Bytes(256, 2));
      add(bc::MsgType::Upload, body.serialize());
      add(bc::MsgType::UploadReply, bu::Bytes(80, 3));
      add(bc::MsgType::Invoke, in.put_msgs[0]);
      add(bc::MsgType::Output, bu::to_bytes("OK"));
      add(bc::MsgType::Shutdown, {});
      add(bc::MsgType::Ok, {});
      break;
    }
  }
  bc::StreamFramer framer;
  std::size_t i = 0;
  return us_per_call([&] {
    const bu::Bytes wire = bc::StreamFramer::frame(msgs[i++ % msgs.size()]);
    if (framer.feed(wire).size() != 1) throw std::runtime_error("codec: frame lost");
  });
}

// tee: the attested channel's seal + open of this workload's upload body.
double time_channel(const Inputs& in, std::uint64_t seed) {
  bu::Rng rng(seed);
  bento::tee::Platform platform(1, 1, rng);
  bento::tee::Enclave enclave(platform, bu::to_bytes("invokebench runtime"), "bench");
  crypto::DhKeyPair eph;
  const auto hello = bento::tee::SecureChannel::client_hello(eph, rng);
  bento::tee::SecureChannel::Accept accept;
  auto server = bento::tee::SecureChannel::server_accept(hello, enclave, rng, &accept);
  auto client = bento::tee::SecureChannel::client_finish(eph, accept, enclave.measurement());
  if (!client.has_value()) throw std::runtime_error("tee: channel handshake failed");
  const bu::Bytes body = bc::UploadBody{in.manifest.serialize(), in.source, "", {}}.serialize();
  return us_per_call([&] {
    if (!server.open(client->seal(body)).has_value()) {
      throw std::runtime_error("tee: channel open failed");
    }
  });
}

struct StoreTimes {
  double put_us = 0, get_hit_us = 0, get_miss_us = 0;
};

// store: a BlobStore on a Volume with the workload's options; puts cycle
// through the workload's blobs (compacting whenever the store asks, as the
// container does), gets are timed separately on blobs the cache holds and
// on blobs it cannot.
StoreTimes time_store(const Config& config, const std::vector<bu::Bytes>& blobs) {
  store::StoreOptions opts;
  if (config.kind == Kind::DropboxSealed) opts.cache_bytes = config.cache_bytes;
  crypto::ChaChaKey key{};
  key.fill(0x33);
  StoreTimes out;
  {
    store::Volume volume;
    store::BlobStore blob(volume, store::make_chapoly_sealer(key), opts);
    std::size_t i = 0;
    out.put_us = us_per_call([&] {
      blob.put("drop.bin", blobs[i++ % blobs.size()]);
      if (blob.wants_compaction()) blob.compact();
    });
  }
  auto time_gets = [&](std::size_t cache_bytes, bool want_hits) {
    store::StoreOptions o = opts;
    o.cache_bytes = cache_bytes;
    std::vector<double> per_blob;
    for (const bu::Bytes& b : blobs) {
      if (per_blob.size() == 4) break;
      if (want_hits != (b.size() <= cache_bytes)) continue;
      store::Volume volume;
      store::BlobStore blob(volume, store::make_chapoly_sealer(key), o);
      blob.put("drop.bin", b);
      per_blob.push_back(us_per_call([&] {
        if (!blob.get("drop.bin").has_value()) throw std::runtime_error("store: lost blob");
      }));
    }
    return per_blob.empty() ? -1.0 : median(per_blob);
  };
  // Blobs the workload's cache holds hit; larger ones miss. A workload
  // whose blobs all fall on one side is timed on the other side with the
  // cache forced fully on or off.
  out.get_hit_us = time_gets(opts.cache_bytes, true);
  if (out.get_hit_us < 0) out.get_hit_us = time_gets(SIZE_MAX, true);
  out.get_miss_us = time_gets(opts.cache_bytes, false);
  if (out.get_miss_us < 0) out.get_miss_us = time_gets(0, false);
  return out;
}

}  // namespace

LayerTimes time_layers(const Config& config, const Inputs& in) {
  std::vector<bu::Bytes> scratch;
  const std::vector<bu::Bytes>& data = payloads(in, scratch);
  LayerTimes t;
  t.sim_us_per_event = time_sim(config.seed);
  t.tor_crypt_us_per_cell_hop = time_tor(data);
  {
    bu::Rng rng(config.seed);
    const crypto::DhKeyPair peer = crypto::DhKeyPair::generate(rng);
    t.dh_us_per_call = us_per_call([&] {
      const crypto::DhKeyPair mine = crypto::DhKeyPair::generate(rng);
      if (crypto::dh_shared(mine, peer.public_value).size() != crypto::kGpBytes) {
        throw std::runtime_error("dh: bad shared secret");
      }
    });
  }
  {
    bu::Bytes kib;
    for (std::size_t i = 0; kib.size() < 1024; ++i) bu::append(kib, data[i % data.size()]);
    kib.resize(1024);
    crypto::ChaChaKey key{};
    key.fill(0x11);
    const crypto::ChaChaNonce nonce{};
    const bu::Bytes aad(24, 0);
    t.aead_us_per_kib = us_per_call([&] {
      if (crypto::chapoly_seal(key, nonce, aad, kib).size() != 1024 + 16) {
        throw std::runtime_error("aead: bad length");
      }
    });
  }
  t.codec_us_per_msg = time_codec(config, in);
  t.channel_us_per_msg = time_channel(in, config.seed);
  t.parse_analyze_us = us_per_call([&] {
    auto program = bento::script::parse(in.source);
    if (bento::script::analyze(*program).diagnostics.size() > 1000) {
      throw std::runtime_error("script: analyzer flood");
    }
  });
  t.on_message_us = time_on_message(config, in);
  const StoreTimes st = time_store(config, data);
  t.put_us = st.put_us;
  t.get_hit_us = st.get_hit_us;
  t.get_miss_us = st.get_miss_us;
  {
    // zlite's intended input is a Browser page: the workload's own, or on
    // workloads that fetch none, one made the same way from the seed.
    const bu::Bytes page =
        bu::to_bytes(in.page.empty() ? make_page(config.seed, 64 << 10) : in.page);
    t.zlite_compress_us = us_per_call([&] {
      if (bu::zlite::compress(page).empty()) throw std::runtime_error("zlite: empty output");
    });
  }
  return t;
}

}  // namespace invokebench
