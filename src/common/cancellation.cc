#include "common/cancellation.hh"

#include <chrono>

#include "common/arg_parser.hh"
#include "common/errors.hh"
#include "common/log.hh"

namespace fscache
{

namespace
{

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

thread_local CancelState *tls_current = nullptr;

} // namespace

CancelState::CancelState(std::uint64_t deadline_ns)
    : budget_ns_(deadline_ns),
      deadline_ns_(deadline_ns > 0 ? steadyNowNs() + deadline_ns : 0)
{
}

bool
CancelState::expired()
{
    if (budget_ns_ == 0)
        return false;
    if (steadyNowNs() < deadline_ns_)
        return false;
    cancelled_.store(true, std::memory_order_relaxed);
    return true;
}

CancelScope::CancelScope(std::shared_ptr<CancelState> state)
    : prev_(tls_current)
{
    // The scope borrows the state for its lifetime; the shared_ptr
    // owner (the cell guard) outlives the scope by construction.
    tls_current = state.get();
}

CancelScope::~CancelScope()
{
    tls_current = prev_;
}

namespace detail
{

CancelState *
currentCancelState()
{
    return tls_current;
}

void
pollCancellationSlow(CancelState *state)
{
    if (state->cancelled()) {
        // An expired deadline latches cancelled_, so a cell keeps
        // getting the timeout error (not the generic cancel) once
        // its watchdog fired.
        if (state->budgetNs() > 0)
            // fs-analyze: allow(hot-path-alloc) throwing exit: the
            // message is built only when the cell is being killed.
            throw CellTimeoutError(strprintf(
                "cell exceeded its %llu ms watchdog deadline",
                static_cast<unsigned long long>(state->budgetNs() /
                                                1000000)));
        throw CellCancelledError("cell was cancelled");
    }
    if (state->expired())
        // fs-analyze: allow(hot-path-alloc) throwing exit (above).
        throw CellTimeoutError(strprintf(
            "cell exceeded its %llu ms watchdog deadline",
            static_cast<unsigned long long>(state->budgetNs() /
                                            1000000)));
}

} // namespace detail

std::uint64_t
cellTimeoutMsFromEnv()
{
    return parseEnvUnsigned<std::uint64_t>("FS_CELL_TIMEOUT_MS", 0);
}

} // namespace fscache
