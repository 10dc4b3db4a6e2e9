// JSON tuning cache (DESIGN.md §9): plans keyed by TuningKey so repeat
// runs of the same (lattice, extent, ranks, precision) skip the search.
//
// File format ("swlb-tune-v2"):
//
//   {
//     "schema": "swlb-tune-v2",
//     "plans": [
//       { "key": "D3Q19:64x64x64:r4:f64",
//         "plan": { "advised_quant_error": 5.9e-8, "backend": "fused",
//                   "evidence": { "<name>": <num>, ... },
//                   "halo_mode": "overlap", "precision": "f64",
//                   "precision_advice": "...", "source": "model" } }
//     ]
//   }
//
// Invalidation is structural: a missing file or a file with a different
// schema tag (v1 files among them) loads as an *empty* cache (the stale
// format is discarded and re-tuned, never half-parsed), and a lookup
// whose key differs in any field misses.  Files are read by the shared
// strict parser and written through the shared escaper and number
// formatter (io/json.hpp), so writes are byte-deterministic for
// identical contents and a non-finite double round-trips as `null` ->
// NaN.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "tune/plan.hpp"

namespace swlb::tune {

inline constexpr const char* kTuneSchema = "swlb-tune-v2";

class TuningCache {
 public:
  /// Load from `path`.  Missing file or wrong/unknown schema -> empty
  /// cache; a present, schema-matching but syntactically broken file
  /// throws Error (that is corruption, not staleness).
  static TuningCache load(const std::string& path);

  /// Write the whole cache (deterministic key order).  Throws Error when
  /// the file cannot be written.
  void save(const std::string& path) const;

  /// The stored plan for `key`, or nullopt on any mismatch.
  std::optional<TuningPlan> lookup(const TuningKey& key) const;

  void store(const TuningKey& key, const TuningPlan& plan) {
    plans_[key.toString()] = plan;
  }

  std::size_t size() const { return plans_.size(); }
  bool empty() const { return plans_.empty(); }

  /// Serialized form (what save() writes), exposed for tests.
  std::string toString() const;

 private:
  std::map<std::string, TuningPlan> plans_;  ///< by TuningKey::toString()
};

}  // namespace swlb::tune
