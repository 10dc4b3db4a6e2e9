// Translation unit for the vectorization guard (scripts/check_vectorized.py):
// instantiates the fused kernel's D3Q19 sweep for one storage type
// (SWLB_VEC_STORAGE: double or float) under one of the two collision
// policies whose bulk runs take the direction-outer chunk (SWLB_VEC_FORCE:
// 0 for BGK, 1 for BGK+Guo).  One instantiation per compile, so every
// vectorization report in core/kernels.hpp belongs to it.  Compiled with
// -fopt-info-vec, never linked.
#include "core/kernels.hpp"

#ifndef SWLB_VEC_STORAGE
#define SWLB_VEC_STORAGE double
#endif
#ifndef SWLB_VEC_FORCE
#define SWLB_VEC_FORCE 0
#endif

namespace swlb::detail {

using VecPolicy = BgkPolicy<D3Q19, SWLB_VEC_FORCE != 0, false>;
static_assert(VecPolicy::kChunked);

template void fused_sweep<D3Q19, SWLB_VEC_STORAGE, VecPolicy>(
    const VecPolicy&, const PopulationFieldT<SWLB_VEC_STORAGE>&,
    PopulationFieldT<SWLB_VEC_STORAGE>&, const MaskField&,
    const MaterialTable&, const Box3&);

}  // namespace swlb::detail
