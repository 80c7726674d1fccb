#include "partition/unpartitioned_scheme.hh"

#include "common/simd.hh"

namespace fscache
{

std::uint32_t
UnpartitionedScheme::selectVictim(CandidateSoA &cands, PartId incoming)
{
    (void)incoming;
    // Plain argmax; invalid slots (futility -1.0) can never beat a
    // valid candidate and at least one valid entry is guaranteed.
    return simd::argmaxPlain(cands.futility.data(),
                             cands.size());
}

} // namespace fscache
