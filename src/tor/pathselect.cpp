#include "tor/pathselect.hpp"

#include <algorithm>
#include <stdexcept>

namespace bento::tor {

namespace {
// Relays are compared by identity key, of which the fingerprint is a hash:
// no relay is hashed while a path is chosen.
bool conflicts(const RelayDescriptor& candidate,
               const std::vector<const RelayDescriptor*>& chosen) {
  return std::any_of(chosen.begin(), chosen.end(), [&](const RelayDescriptor* c) {
    return c->identity_key == candidate.identity_key ||
           slash16(c->addr) == slash16(candidate.addr);
  });
}

bool excluded_by(const RelayDescriptor& candidate, const std::vector<crypto::Gp>& ex) {
  return std::find(ex.begin(), ex.end(), candidate.identity_key) != ex.end();
}
}  // namespace

Path PathSelector::choose(const PathConstraints& constraints, util::Rng& rng) const {
  if (constraints.hops < 1 || constraints.hops > 8) {
    throw std::invalid_argument("PathSelector: unsupported hop count");
  }
  // An excluded fingerprint absent from the consensus excludes nothing.
  std::vector<crypto::Gp> excluded;
  for (const std::string& fp : constraints.excluded) {
    if (const RelayDescriptor* rel = consensus_->find(fp)) excluded.push_back(rel->identity_key);
  }

  // Choose the last hop first: it has the tightest constraints.
  const RelayDescriptor* last = nullptr;
  if (constraints.last_hop.has_value()) {
    last = consensus_->find(*constraints.last_hop);
    if (last == nullptr) {
      throw std::runtime_error("PathSelector: pinned last hop not in consensus");
    }
    if (excluded_by(*last, excluded)) {
      throw std::runtime_error("PathSelector: pinned last hop is excluded");
    }
  } else {
    last = pick_weighted(
        [&](const RelayDescriptor& r) {
          if (excluded_by(r, excluded)) return false;
          if (constraints.exit_to.has_value()) {
            return r.flags.exit && r.exit_policy.allows(*constraints.exit_to);
          }
          return r.flags.fast;
        },
        rng);
    if (last == nullptr) {
      throw std::runtime_error("PathSelector: no eligible last hop");
    }
  }

  // Guard, then middles, left to right; each avoids conflicts with all
  // relays chosen so far (including the pinned last hop).
  std::vector<const RelayDescriptor*> chosen = {last};
  for (int hop = 0; hop + 1 < constraints.hops; ++hop) {
    const bool is_guard = hop == 0;
    const RelayDescriptor* pick = pick_weighted(
        [&](const RelayDescriptor& r) {
          if (excluded_by(r, excluded)) return false;
          if (is_guard && !r.flags.guard) return false;
          if (!r.flags.fast) return false;
          return !conflicts(r, chosen);
        },
        rng);
    if (pick == nullptr) {
      throw std::runtime_error("PathSelector: no eligible relay for hop " +
                               std::to_string(hop));
    }
    chosen.push_back(pick);
  }
  Path path;
  path.reserve(chosen.size());
  for (std::size_t i = 1; i < chosen.size(); ++i) path.push_back(*chosen[i]);
  path.push_back(*last);
  return path;
}

}  // namespace bento::tor
