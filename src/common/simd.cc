#include "common/simd.hh"

namespace fscache
{
namespace simd
{

const Kernels &
kernels()
{
    static constexpr Kernels kTable{
        &argmaxPlain,
        &argmaxMasked,
        &argmaxScaled,
    };
    return kTable;
}

const char *
backendName()
{
    return "scalar";
}

} // namespace simd
} // namespace fscache
