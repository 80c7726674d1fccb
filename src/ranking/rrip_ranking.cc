#include "ranking/rrip_ranking.hh"

#include "common/log.hh"

namespace fscache
{

RripRanking::RripRanking(LineId num_lines, std::uint32_t rrpv_bits)
    : ClassRankingBase(num_lines, 1u << rrpv_bits),
      rrpvMax_((1u << rrpv_bits) - 1), lastTouch_(num_lines, 0)
{
    fs_assert(rrpv_bits >= 1 && rrpv_bits <= 8, "bad RRPV width");
}

} // namespace fscache
