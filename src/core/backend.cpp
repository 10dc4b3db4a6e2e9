#include "core/backend.hpp"

namespace swlb {

// The catalog is the single source of truth for what backends exist and
// what they promise.  scripts/check_docs.py parses the block between the
// BACKEND-CATALOG markers and fails CI when a name here is missing from
// the README "Backends" table or DESIGN.md §14 — keep the `{"name",`
// literal on the first line of each entry.
const std::vector<BackendInfo>& backend_catalog() {
  static const std::vector<BackendInfo> catalog = {
      // BACKEND-CATALOG-BEGIN
      {"fused",
       "optimized SoA fused pull kernel, vectorized bulk runs (the "
       "bit-identity reference)",
       BackendCaps{}},
      {"esoteric",
       "in-place Esoteric-Pull streaming, single buffer (0.5x memory)",
       BackendCaps{.inPlaceStreaming = true}},
      {"swcpe",
       "SW26010 CPE-cluster emulator: 64-CPE y-partition, LDM-blocked DMA",
       BackendCaps{.subRange = false}},
      // BACKEND-CATALOG-END
  };
  return catalog;
}

const BackendInfo* find_backend_info(const std::string& name) {
  for (const BackendInfo& b : backend_catalog())
    if (b.name == name) return &b;
  return nullptr;
}

}  // namespace swlb
