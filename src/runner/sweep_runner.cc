#include "runner/sweep_runner.hh"

#include <thread>

#include "common/arg_parser.hh"

namespace fscache
{

unsigned
SweepRunner::defaultJobs()
{
    // The fallback 0 means "unset": an explicit FS_JOBS=0 fails the
    // minimum of 1.
    unsigned jobs = parseEnvUnsigned("FS_JOBS", 0u, 1u);
    if (jobs > 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs > 0 ? jobs : defaultJobs())
{
}

} // namespace fscache
