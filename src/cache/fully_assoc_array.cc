#include "cache/fully_assoc_array.hh"

#include "common/log.hh"

namespace fscache
{

FullyAssocArray::FullyAssocArray(LineId num_lines)
    : CacheArray(num_lines, /*unrestricted=*/true)
{
}

void
FullyAssocArray::collectCandidates(Addr addr, std::vector<LineId> &out)
{
    (void)addr;
    (void)out;
    panic("fully-associative candidates are synthesized by the owner "
          "from the ranking (worst line per partition)");
}

} // namespace fscache
