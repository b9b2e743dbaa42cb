// Sharded read-through cache over the ModelRegistry -- the model-resolution
// half of the fleet frontend.
//
// A fleet opens thousands of streams, most of which reference the same
// handful of model bundles; deserializing a template archive per stream
// would dominate open_stream cost and waste memory on identical copies.
// The view resolves (name, version) to ONE shared in-memory model per
// artifact, loading each archive from disk at most once, and returns the
// artifact checksum alongside so the caller can stamp every result with the
// exact on-disk version that produced it.
//
// "Latest" pinning: version 0 resolves to the newest stored version at the
// moment of FIRST resolution and stays pinned there for the lifetime of the
// view.  A registry save performed later must not retroactively flip models
// under streams that asked for "latest" when they opened -- fleet model
// rollout is an explicit operation (open new streams, or hot-swap through
// the recalibration path), never a side effect of a writer racing a reader.
//
// Sharded by bundle-name hash so concurrent open_stream storms on different
// bundles do not serialize on one mutex.  All members are thread-safe.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/registry.hpp"

namespace sidis::runtime {

/// One resolved model: the shared instance plus the registry identity it was
/// loaded from.  `checksum` doubles as the serving stamp
/// (FleetResult::model_stamp of every window it classifies).
struct ResolvedModel {
  std::shared_ptr<const core::HierarchicalDisassembler> model;
  std::string name;
  int version = 0;  ///< concrete stored version (resolved from 0 = latest)
  std::uint64_t checksum = 0;
};

class RegistryView {
 public:
  /// The registry must outlive the view.  `shards` bounds lock contention,
  /// not capacity (clamped to >= 1).
  explicit RegistryView(const ModelRegistry& registry, std::size_t shards = 8);

  RegistryView(const RegistryView&) = delete;
  RegistryView& operator=(const RegistryView&) = delete;

  /// Resolves `name` at `version` (0 = latest-at-first-resolve, see header
  /// comment), loading and caching the artifact on first use.  Throws like
  /// ModelRegistry::load on unknown/corrupt artifacts.
  ResolvedModel resolve(const std::string& name, int version = 0);

  /// Distinct artifacts currently cached across all shards.
  std::size_t models_cached() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::map<std::pair<std::string, int>, ResolvedModel> cache;
    std::map<std::string, int> pinned_latest;  ///< name -> version 0 resolved to
  };

  Shard& shard_for(const std::string& name);
  const Shard& shard_for(const std::string& name) const;

  const ModelRegistry& registry_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace sidis::runtime
