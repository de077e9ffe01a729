#include "functions/library.hpp"

namespace bento::functions {

namespace sb = sandbox;

namespace {
core::FunctionManifest base_manifest(const std::string& name) {
  core::FunctionManifest m;
  m.name = name;
  m.resources.memory_bytes = 24 << 20;  // §7.3: Bento+Browser ~16-20 MB
  m.resources.cpu_instructions = 80'000'000;
  m.resources.disk_bytes = 16 << 20;
  m.resources.network_bytes = 256 << 20;
  return m;
}
}  // namespace

const std::string& browser_source() {
  // The insight (§7.2): the adversary cannot observe identifiable behaviors
  // if the user is not the one running the web client. Fetch at the box,
  // compress, pad to a multiple of `padding`, ship back — Appendix A.
  static const std::string source = R"(
state = {"padding": 0}

def deliver(final):
    api.send(final)

def fetched(body):
    if body == None:
        api.send("ERR fetch failed")
        return
    compressed = zlib.compress(body)
    final = compressed
    padding = state["padding"]
    if padding > 0:
        final = final + os.urandom((padding - len(final) % padding) % padding)
    deliver(final)

def on_message(msg):
    req = str(msg).split(" ")
    state["padding"] = int(req[1])
    net.get(req[0], fetched)
)";
  return source;
}

core::FunctionManifest browser_manifest() {
  auto m = base_manifest("browser");
  m.required = {sb::Syscall::NetConnect, sb::Syscall::Random, sb::Syscall::Clock};
  m.image = core::kImagePythonOpSgx;
  return m;
}

const std::string& dropbox_source() {
  // §9.2: ephemeral in-network storage. The invocation token is the
  // capability; data expires after max_gets reads or expiry seconds.
  static const std::string source = R"(
state = {"gets": 0, "max_gets": 100, "stored": False, "expiry": 0.0}

def expire():
    fs.delete("drop.bin")
    state["stored"] = False

def on_install(args):
    a = str(args)
    if len(a) > 0:
        state["expiry"] = float(a)

def on_message(msg):
    cmd = str(sub(msg, 0, 4))
    if cmd == "PUT:":
        fs.write("drop.bin", sub(msg, 4))
        state["stored"] = True
        state["gets"] = 0
        if state["expiry"] > 0:
            time.after(state["expiry"], expire)
        api.send("OK")
    elif cmd == "GET:":
        data = fs.read("drop.bin")
        if data == None:
            api.send("MISSING")
        else:
            state["gets"] += 1
            api.send(data)
            if state["gets"] >= state["max_gets"]:
                expire()
    elif cmd == "DEL:":
        expire()
        api.send("OK")
    else:
        api.send("ERR bad command")
)";
  return source;
}

core::FunctionManifest dropbox_manifest() {
  auto m = base_manifest("dropbox");
  m.required = {sb::Syscall::FsRead, sb::Syscall::FsWrite, sb::Syscall::FsDelete,
                sb::Syscall::Clock};
  m.image = core::kImagePythonOpSgx;  // encrypted at rest (§6.2)
  return m;
}

const std::string& cover_source() {
  // §9.1: keep the circuit transmitting at a fixed rate; junk when idle.
  static const std::string source = R"(
state = {"interval": 1.0, "on": False}

def tick():
    if state["on"]:
        api.send(os.urandom(490))
        time.after(state["interval"], tick)

def on_message(msg):
    m = str(msg)
    if m.startswith("start "):
        state["interval"] = float(sub(m, 6))
        state["on"] = True
        tick()
    elif m == "stop":
        state["on"] = False
        api.send("stopped")
    else:
        api.send("ERR bad command")
)";
  return source;
}

core::FunctionManifest cover_manifest() {
  auto m = base_manifest("cover");
  m.required = {sb::Syscall::Random, sb::Syscall::Clock};
  return m;
}

const std::string& policy_query_source() {
  static const std::string source = R"(
state = {"policy": ""}

def on_install(args):
    state["policy"] = str(args)

def on_message(msg):
    api.send(state["policy"])
)";
  return source;
}

core::FunctionManifest policy_query_manifest() {
  auto m = base_manifest("policy-query");
  m.required = {};
  m.resources.memory_bytes = 4 << 20;
  return m;
}

}  // namespace bento::functions
