// Built-in kernel backends and the per-(lattice, storage) registry
// (DESIGN.md §14).  Each host backend is a thin adapter from the
// KernelBackend hooks onto the kernels in core/kernels*.hpp; the SW CPE
// emulator adapter lives in sw/backend_cpe.hpp and is registered here
// for the lattices its kernel is instantiated for.  Solvers obtain
// instances through make_backend<D, S>(name); unknown names throw with
// the registered list — requesting a backend never silently degrades to
// another one.  The ablation kernels (generic pull, two-step, push) are
// not backends: tests and bench_kernels call them as plain functions.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <type_traits>

#include "core/backend.hpp"
#include "sw/backend_cpe.hpp"

namespace swlb {

template <class D, class S>
class FusedBackend final : public KernelBackend<D, S> {
 public:
  FusedBackend() : KernelBackend<D, S>("fused") {}

 protected:
  void step(const BackendStepArgs<D, S>& a) override {
    stream_collide_fused<D>(*a.src, *a.dst, *a.mask, *a.mats, *a.cfg,
                            a.range);
  }
};

/// In-place Esoteric-Pull backend: implements the even/odd phase pair and
/// keeps the throwing two-lattice step() (callers branch on
/// caps.inPlaceStreaming, so reaching it is a solver bug).
template <class D, class S>
class EsotericBackend final : public KernelBackend<D, S> {
 public:
  using Field = PopulationFieldT<S>;
  EsotericBackend() : KernelBackend<D, S>("esoteric") {}

 protected:
  void stepInPlaceEven(Field& f, const MaskField& mask,
                       const MaterialTable& mats, const CollisionConfig& cfg,
                       const Box3& range) override {
    stream_collide_esoteric_even<D>(f, mask, mats, cfg, range);
  }
  void stepInPlaceOdd(Field& f, const MaskField& mask,
                      const MaterialTable& mats, const CollisionConfig& cfg,
                      const Box3& range) override {
    stream_collide_esoteric_odd<D>(f, mask, mats, cfg, range);
  }
};

/// Factory registry for one (lattice, storage) instantiation.  Built-ins
/// register in the constructor; a backend whose kernel is not
/// instantiated for this lattice (swcpe outside D3Q19/D2Q9) is simply
/// absent, so requesting it throws the explicit "not registered" error
/// instead of link-failing or falling back.
template <class D, class S>
class BackendRegistry {
 public:
  using Factory = std::function<std::unique_ptr<KernelBackend<D, S>>()>;

  static BackendRegistry& instance() {
    static BackendRegistry reg;
    return reg;
  }

  bool has(const std::string& name) const {
    return factories_.count(name) > 0;
  }

  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const BackendInfo& b : backend_catalog())
      if (has(b.name)) out.push_back(b.name);
    return out;
  }

  std::unique_ptr<KernelBackend<D, S>> make(const std::string& name) const {
    const auto it = factories_.find(name);
    if (it == factories_.end()) {
      std::string known;
      for (const std::string& n : names()) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      throw Error("backend '" + name + "' is not registered for lattice " +
                  D::name() + " (registered: " + known + ")");
    }
    return it->second();
  }

 private:
  BackendRegistry() {
    add("fused", [] { return std::make_unique<FusedBackend<D, S>>(); });
    add("esoteric", [] { return std::make_unique<EsotericBackend<D, S>>(); });
    // The CPE kernel is explicitly instantiated for D3Q19/D2Q9 only
    // (sw/sw_kernels.cpp); other lattices must get the not-registered
    // error above, not a link error.
    if constexpr (std::is_same_v<D, D3Q19> || std::is_same_v<D, D2Q9>) {
      add("swcpe",
          [] { return std::make_unique<sw::SwCpeBackend<D, S>>(); });
    }
  }

  void add(const char* name, Factory f) {
    SWLB_ASSERT(find_backend_info(name) != nullptr);
    factories_.emplace(name, std::move(f));
  }

  std::map<std::string, Factory> factories_;
};

/// Create a backend instance by catalog name for (D, S).  Throws (with
/// the registered list) for unknown names or lattices the backend does
/// not support — the capability-rejection contract.
template <class D, class S>
std::unique_ptr<KernelBackend<D, S>> make_backend(const std::string& name) {
  return BackendRegistry<D, S>::instance().make(name);
}

/// Registered backend names for (D, S), in catalog order.
template <class D, class S>
std::vector<std::string> backend_names() {
  return BackendRegistry<D, S>::instance().names();
}

}  // namespace swlb
