// Bandwidth-weighted path selection (tor path-spec).
//
// Three-hop paths: guard -> middle -> exit, sampled proportionally to
// consensus bandwidth among relays with the required flags, with the usual
// diversity constraints: distinct relays and distinct /16 prefixes. The
// exit must allow the target endpoint in its policy; for internal circuits
// (hidden-service legs, Bento middlebox visits) any relay may terminate.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "tor/directory.hpp"
#include "util/rng.hpp"

namespace bento::tor {

struct PathConstraints {
  /// Endpoint the exit must allow; nullopt builds an internal circuit.
  std::optional<Endpoint> exit_to;
  /// Force a specific relay fingerprint as the last hop (e.g. a Bento box,
  /// an introduction or rendezvous point).
  std::optional<std::string> last_hop;
  /// Relays that must not appear anywhere on the path.
  std::vector<std::string> excluded;
  int hops = 3;
};

/// A selected path (descriptors copied from the consensus, first = guard).
using Path = std::vector<RelayDescriptor>;

class PathSelector {
 public:
  explicit PathSelector(const Consensus& consensus) : consensus_(&consensus) {}

  /// Samples a path; throws std::runtime_error if the constraints are
  /// unsatisfiable with the current consensus.
  Path choose(const PathConstraints& constraints, util::Rng& rng) const;

  /// Samples a single relay with the given predicate, bandwidth-weighted.
  template <typename Predicate>
  const RelayDescriptor* pick_weighted(const Predicate& ok, util::Rng& rng) const {
    std::vector<const RelayDescriptor*> eligible;
    std::vector<double> weights;
    for (const auto& rel : consensus_->relays) {
      if (!ok(rel)) continue;
      eligible.push_back(&rel);
      weights.push_back(rel.bandwidth);
    }
    if (eligible.empty()) return nullptr;
    return eligible[rng.weighted_index(weights)];
  }

 private:
  const Consensus* consensus_;
};

}  // namespace bento::tor
