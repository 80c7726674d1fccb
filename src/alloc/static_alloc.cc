#include "alloc/static_alloc.hh"

#include <algorithm>

#include "common/log.hh"

namespace fscache
{

Allocation
equalShare(LineId total_lines, std::uint32_t parts)
{
    fs_assert(parts >= 1, "need at least one partition");
    Allocation out(parts, total_lines / parts);
    for (std::uint32_t p = 0; p < total_lines % parts; ++p)
        ++out[p];
    return out;
}

Allocation
proportionalShare(LineId total_lines,
                  const std::vector<double> &fractions)
{
    fs_assert(!fractions.empty(), "need at least one fraction");
    double total = 0.0;
    for (double f : fractions) {
        fs_assert(f >= 0.0, "fractions must be non-negative");
        total += f;
    }
    fs_assert(total > 0.0, "fractions must not all be zero");

    std::size_t n = fractions.size();
    Allocation out(n, 0);
    std::vector<double> exact(n);
    std::uint64_t assigned = 0;
    for (std::size_t p = 0; p < n; ++p) {
        exact[p] = fractions[p] / total * total_lines;
        out[p] = static_cast<std::uint32_t>(exact[p]);
        assigned += out[p];
    }
    while (assigned < total_lines) {
        std::size_t best = 0;
        double best_rem = -1.0;
        for (std::size_t p = 0; p < n; ++p) {
            double rem = exact[p] - out[p];
            if (rem > best_rem) {
                best_rem = rem;
                best = p;
            }
        }
        ++out[best];
        ++assigned;
    }
    return out;
}

} // namespace fscache
