/**
 * @file
 * Process-isolated sweep farm: crash-contained multi-process cell
 * execution with hard kills and deterministic merge.
 *
 * The thread-pool executor (runner/sweep_runner.hh) quarantines
 * cells that fail *cooperatively* — a thrown exception, a watchdog
 * poll. It cannot contain a real SIGSEGV or a cell that never polls
 * cancellation: those take the whole sweep down. The process
 * executor closes that gap by making a sweep cell *data* instead of
 * a live closure:
 *
 *  - The driver binary re-enters itself: the parent fork/execs a
 *    small pool of FS_WORKERS copies of its own argv plus a hidden
 *    `--fs-worker` flag. Each worker runs the identical driver
 *    main() up to its mapResilientCheckpointed() call — rebuilding
 *    the same workload, cache spec, and cell function — and then
 *    serves cells instead of sweeping.
 *  - Cells travel as CellSpec lines (protocol version, sweep
 *    fingerprint, cell index) over the worker's stdin; results come
 *    back as versioned CellResult lines over a dedicated pipe on
 *    fd 3, carrying the checkpoint-codec payload bit-exactly
 *    (doubles by bit pattern, strings hex-encoded). The fingerprint
 *    is the same FNV-1a key the checkpoint journal uses, so a
 *    worker that rebuilt a *different* sweep (config skew between
 *    parent and child binary/environment) refuses to serve.
 *  - A worker that dies — SIGSEGV, sanitizer abort, nonzero exit —
 *    kills one cell, not the sweep: the parent decodes the waitpid
 *    status into a typed FAILED(crash:SIGSEGV)-style outcome,
 *    restarts the worker with exponential backoff, and requeues the
 *    cell on a fresh worker until the poison-cell threshold
 *    (FS_POISON_KILLS, default 1) quarantines it for good.
 *  - A worker that wedges — a busy loop that never polls
 *    cancellation — is SIGKILLed after FS_WORKER_HARD_TIMEOUT_MS of
 *    wall clock, no cooperation required, and the cell is
 *    quarantined as FAILED(hard-timeout).
 *  - Results are merged **in cell order**, so a clean process-mode
 *    run renders byte-identical artifacts to the in-process path
 *    (pinned by the golden_fs_setassoc_coarse_proc ctest), and the
 *    checkpoint journal interoperates: a journal written under
 *    FS_EXECUTOR=thread resumes under FS_EXECUTOR=process and vice
 *    versa.
 *
 * Drivers opt in by calling procExecutorInit() first thing in
 * main() (captures argv for re-exec and strips `--fs-worker`) and
 * using SweepRunner::mapResilientCheckpointed(), whose encode /
 * decode hooks double as the wire codec. FS_EXECUTOR=process then
 * switches any such sweep onto the farm. See docs/ROBUSTNESS.md
 * §Process isolation.
 */

#ifndef FSCACHE_RUNNER_PROC_EXECUTOR_HH
#define FSCACHE_RUNNER_PROC_EXECUTOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/cell_guard.hh"

namespace fscache
{

/** Which executor mapResilientCheckpointed() runs cells on. */
enum class ExecutorKind
{
    Thread,  ///< in-process thread pool (default)
    Process, ///< multi-process farm (FS_EXECUTOR=process)
};

/** FS_EXECUTOR: unset/"thread" or "process"; anything else is
 *  fatal. Re-read on every call so tests can flip it. */
ExecutorKind executorKindFromEnv();

/**
 * Capture argv for worker re-exec and detect `--fs-worker`. Must be
 * the first thing a farm-capable driver's main() does: the flag is
 * stripped in place (argc/argv are adjusted) so the driver's own
 * argument parser never sees it, and the filtered argv is what the
 * parent re-execs workers with. Idempotent per process.
 */
void procExecutorInit(int *argc, char **argv);

/** True when this process was exec'd as a farm worker. */
bool procWorkerMode();

/**
 * The fingerprint of the sweep this worker was spawned to serve
 * (meaningful only when procWorkerMode()). A multi-sweep driver
 * recomputes any checkpointed sweep with a different fingerprint
 * inline — serially, unjournaled — and keeps running main() until
 * it reaches the farmed one.
 */
std::uint64_t procWorkerFingerprint();

/** Farm knobs; fromEnv() re-reads the environment on every call. */
struct ProcExecutorConfig
{
    /** Worker-process pool size (FS_WORKERS; default: FS_JOBS or
     *  the hardware concurrency, like the thread executor). */
    unsigned workers = 0;

    /** Wall-clock budget per cell in ms before the worker is
     *  SIGKILLed (FS_WORKER_HARD_TIMEOUT_MS); 0 disables the hard
     *  kill. */
    std::uint64_t hardTimeoutMs = 0;

    /** A cell whose worker dies abnormally is requeued on a fresh
     *  worker until it has killed this many workers, then
     *  quarantined (FS_POISON_KILLS, default 1 — cells are
     *  deterministic, so a crash normally reproduces). */
    unsigned poisonKills = 1;

    /** Backoff before respawning after the k-th consecutive worker
     *  death is base * 2^(k-1) ms, capped at 2 s
     *  (FS_WORKER_BACKOFF_MS; 0 disables). */
    std::uint64_t respawnBackoffMs = 25;

    static ProcExecutorConfig fromEnv();
};

/**
 * Wire codec for the farm protocol. One line per message, built on
 * the checkpoint CellEncoder/CellDecoder (doubles by bit pattern,
 * strings hex-encoded) so payloads round-trip bit-exactly; every
 * message leads with a protocol version and decoding a foreign
 * version throws FsError. Decoding is canonical: a line decodes only
 * if re-encoding the result reproduces it byte for byte, otherwise
 * FsError (pinned by a seeded mutation test). Exposed for tests.
 */
namespace procwire
{

/** Protocol version; bumped on any incompatible format change. */
inline constexpr std::uint64_t kVersion = 1;

/** Parent -> worker: run cell `cell` of the sweep `fingerprint`. */
std::string encodeSpec(std::uint64_t fingerprint, std::size_t cell);

/** Inverse of encodeSpec; throws FsError on malformed/foreign
 *  input. */
void decodeSpec(const std::string &line, std::uint64_t &fingerprint,
                std::size_t &cell);

/** Worker -> parent: the guarded outcome of one cell, value
 *  replaced by its encoded payload. */
std::string encodeResult(std::size_t cell,
                         const CellOutcome<std::string> &o);

/** Inverse of encodeResult; throws FsError on malformed/foreign
 *  input. */
void decodeResult(const std::string &line, std::size_t &cell,
                  CellOutcome<std::string> &o);

} // namespace procwire

/**
 * Worker side: serve CellSpec lines from stdin — running each cell
 * through `run_cell` (the guarded cell function with its value
 * encoded) and writing CellResult lines to the result pipe — until
 * the parent closes the pipe, then exit(0). Fatal on a fingerprint
 * mismatch (parent/worker sweep-config skew). Called by
 * SweepRunner::mapResilientCheckpointed() when procWorkerMode();
 * never returns.
 */
[[noreturn]] void serveCellsAsWorker(
    std::size_t cells, std::uint64_t fingerprint,
    const std::function<CellOutcome<std::string>(std::size_t)>
        &run_cell);

/**
 * Parent side: run the `missing` cells of sweep `fingerprint` on a
 * farm of worker processes (see file comment) and return their
 * outcomes, parallel to `missing`. `on_payload` is invoked with
 * each successful cell's encoded payload as it arrives (checkpoint
 * journaling); pass nullptr to skip. Never throws; a farm that
 * cannot make progress (workers die repeatedly with no completed
 * cell) fails the remaining cells instead of looping forever.
 */
std::vector<CellOutcome<std::string>> runProcessFarm(
    const std::vector<std::size_t> &missing,
    std::uint64_t fingerprint, const ProcExecutorConfig &cfg,
    const std::function<void(std::size_t, const std::string &)>
        &on_payload);

} // namespace fscache

#endif // FSCACHE_RUNNER_PROC_EXECUTOR_HH
