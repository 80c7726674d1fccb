#include "runner/proc_executor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <map>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/arg_parser.hh"
#include "common/errors.hh"
#include "common/log.hh"
#include "runner/checkpoint.hh"
#include "runner/sweep_runner.hh"

namespace fscache
{

namespace
{

/** Hidden re-entry flag; the value is the farmed sweep's
 *  fingerprint so a multi-sweep driver knows which of its sweeps to
 *  serve (foreign ones recompute inline; see sweep_runner.hh). */
const char kWorkerFlagPrefix[] = "--fs-worker=";

/** argv captured by procExecutorInit(), worker flag stripped. */
std::vector<std::string> g_argv;        // NOLINT: process-lifetime
std::string g_exePath;                  // NOLINT: process-lifetime
bool g_initDone = false;
bool g_workerMode = false;
std::uint64_t g_workerFingerprint = 0;

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Stable signal names for FAILED(crash:...) markers. strsignal()
 *  is locale-dependent prose; artifacts need tokens. */
std::string
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGABRT: return "SIGABRT";
      case SIGBUS:  return "SIGBUS";
      case SIGILL:  return "SIGILL";
      case SIGFPE:  return "SIGFPE";
      case SIGKILL: return "SIGKILL";
      case SIGTERM: return "SIGTERM";
      default:      return strprintf("SIG%d", sig);
    }
}

/** write(2) the whole buffer, retrying on EINTR/short writes. */
bool
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Read one '\n'-terminated line from fd into `line` (newline
 * stripped), buffering leftovers in `buf` across calls. Returns
 * false on EOF with no complete line.
 */
bool
readLineBuffered(int fd, std::string &buf, std::string &line)
{
    while (true) {
        std::size_t nl = buf.find('\n');
        if (nl != std::string::npos) {
            line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            return true;
        }
        char chunk[4096];
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        buf.append(chunk, static_cast<std::size_t>(n));
    }
}

} // namespace

ExecutorKind
executorKindFromEnv()
{
    const char *env = std::getenv("FS_EXECUTOR");
    if (env == nullptr || *env == '\0' ||
        std::strcmp(env, "thread") == 0)
        return ExecutorKind::Thread;
    if (std::strcmp(env, "process") == 0)
        return ExecutorKind::Process;
    fatal("FS_EXECUTOR must be \"thread\" or \"process\", got "
          "\"%s\"", env);
}

void
procExecutorInit(int *argc, char **argv)
{
    if (g_initDone)
        return;
    g_initDone = true;

    // Workers re-exec the real binary, not whatever relative path
    // the user typed (the farm must survive a driver that chdirs).
    char exe[4096];
    ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n > 0) {
        exe[n] = '\0';
        g_exePath = exe;
    } else {
        g_exePath = argv[0];
    }

    int out = 0;
    for (int i = 0; i < *argc; ++i) {
        if (std::strncmp(argv[i], kWorkerFlagPrefix,
                         sizeof(kWorkerFlagPrefix) - 1) == 0) {
            const char *hex =
                argv[i] + sizeof(kWorkerFlagPrefix) - 1;
            char *end = nullptr;
            g_workerFingerprint = std::strtoull(hex, &end, 16);
            if (end == hex || *end != '\0')
                fatal("malformed %s<fingerprint> flag: \"%s\"",
                      kWorkerFlagPrefix, argv[i]);
            g_workerMode = true;
            continue; // strip: the driver's parser never sees it
        }
        argv[out++] = argv[i];
    }
    *argc = out;
    argv[out] = nullptr;
    g_argv.assign(argv, argv + out);
}

bool
procWorkerMode()
{
    return g_workerMode;
}

std::uint64_t
procWorkerFingerprint()
{
    return g_workerFingerprint;
}

ProcExecutorConfig
ProcExecutorConfig::fromEnv()
{
    ProcExecutorConfig cfg;
    cfg.workers = parseEnvUnsigned("FS_WORKERS", 0u);
    if (cfg.workers == 0)
        cfg.workers = SweepRunner::defaultJobs();
    cfg.hardTimeoutMs =
        parseEnvUnsigned<std::uint64_t>("FS_WORKER_HARD_TIMEOUT_MS", 0);
    cfg.poisonKills = parseEnvUnsigned("FS_POISON_KILLS", 1u);
    if (cfg.poisonKills == 0)
        fatal("FS_POISON_KILLS=0 would retry a poison cell forever");
    cfg.respawnBackoffMs =
        parseEnvUnsigned<std::uint64_t>("FS_WORKER_BACKOFF_MS", 25);
    return cfg;
}

namespace procwire
{

std::string
encodeSpec(std::uint64_t fingerprint, std::size_t cell)
{
    CellEncoder enc;
    enc.u64(kVersion).u64(fingerprint).u64(cell);
    return enc.result();
}

void
decodeSpec(const std::string &line, std::uint64_t &fingerprint,
           std::size_t &cell)
{
    CellDecoder dec(line);
    std::uint64_t version = dec.u64();
    if (version != kVersion)
        throw FsError(strprintf(
            "farm protocol version mismatch: got %llu, want %llu",
            static_cast<unsigned long long>(version),
            static_cast<unsigned long long>(kVersion)));
    fingerprint = dec.u64();
    cell = static_cast<std::size_t>(dec.u64());
    if (!dec.done())
        throw FsError("farm cell spec has trailing tokens");
}

std::string
encodeResult(std::size_t cell, const CellOutcome<std::string> &o)
{
    CellEncoder enc;
    enc.u64(kVersion)
        .u64(cell)
        .u64(static_cast<std::uint64_t>(o.status))
        .u64(static_cast<std::uint64_t>(o.errorClass))
        .u64(o.attempts)
        .str(o.error)
        .str(o.detail)
        .str(o.crashSignal)
        .u64(o.value.has_value() ? 1 : 0)
        .str(o.value.has_value() ? *o.value : std::string());
    return enc.result();
}

void
decodeResult(const std::string &line, std::size_t &cell,
             CellOutcome<std::string> &o)
{
    CellDecoder dec(line);
    std::uint64_t version = dec.u64();
    if (version != kVersion)
        throw FsError(strprintf(
            "farm protocol version mismatch: got %llu, want %llu",
            static_cast<unsigned long long>(version),
            static_cast<unsigned long long>(kVersion)));
    cell = static_cast<std::size_t>(dec.u64());
    std::uint64_t status = dec.u64();
    if (status > static_cast<std::uint64_t>(CellStatus::TimedOut))
        throw FsError("farm cell result: bad status");
    std::uint64_t cls = dec.u64();
    if (cls > static_cast<std::uint64_t>(ErrorClass::HardTimeout))
        throw FsError("farm cell result: bad error class");
    std::uint64_t attempts = dec.u64();
    if (attempts > std::numeric_limits<unsigned>::max())
        throw FsError("farm cell result: bad attempt count");
    o = CellOutcome<std::string>{};
    o.status = static_cast<CellStatus>(status);
    o.errorClass = static_cast<ErrorClass>(cls);
    o.attempts = static_cast<unsigned>(attempts);
    o.error = dec.str();
    o.detail = dec.str();
    o.crashSignal = dec.str();
    std::uint64_t has_value = dec.u64();
    std::string payload = dec.str();
    // Anything else would not re-encode to the line it came from.
    if (has_value > 1 || (has_value == 0 && !payload.empty()))
        throw FsError("farm cell result: bad value flag");
    if (has_value)
        o.value.emplace(std::move(payload));
    if (!dec.done())
        throw FsError("farm cell result has trailing tokens");
}

} // namespace procwire

void
serveCellsAsWorker(
    std::size_t cells, std::uint64_t fingerprint,
    const std::function<CellOutcome<std::string>(std::size_t)>
        &run_cell)
{
    std::string buf;
    std::string line;
    while (readLineBuffered(STDIN_FILENO, buf, line)) {
        std::uint64_t fp = 0;
        std::size_t cell = 0;
        try {
            procwire::decodeSpec(line, fp, cell);
        } catch (const std::exception &e) {
            fatal("farm worker: malformed cell spec: %s", e.what());
        }
        if (fp != fingerprint)
            fatal("farm worker: sweep fingerprint mismatch "
                  "(parent %016llx, worker %016llx) — parent and "
                  "worker rebuilt different sweeps; config skew?",
                  static_cast<unsigned long long>(fp),
                  static_cast<unsigned long long>(fingerprint));
        if (cell >= cells)
            fatal("farm worker: cell %zu out of range (%zu cells)",
                  cell, cells);
        CellOutcome<std::string> o = run_cell(cell);
        std::string res = procwire::encodeResult(cell, o) + "\n";
        if (!writeAll(3, res.data(), res.size()))
            break; // parent is gone; nothing left to serve
    }
    // EOF on the command pipe is the shutdown signal.
    std::_Exit(0);
}

namespace
{

/** One worker process and its pipes, as the parent sees it. */
struct Worker
{
    pid_t pid = -1;
    int cmdFd = -1;            ///< parent -> worker specs
    int resFd = -1;            ///< worker -> parent results
    std::string buf;           ///< partial result line
    bool busy = false;
    std::size_t cell = 0;      ///< meaningful iff busy
    std::uint64_t deadlineNs = 0; ///< hard-kill time; 0 = none
    bool hardKilled = false;   ///< SIGKILLed for blowing the budget
    std::uint64_t respawnAtNs = 0; ///< backoff gate for respawn

    bool alive() const { return pid > 0; }
};

void
closeWorkerFds(Worker &w)
{
    if (w.cmdFd >= 0)
        ::close(w.cmdFd);
    if (w.resFd >= 0)
        ::close(w.resFd);
    w.cmdFd = -1;
    w.resFd = -1;
    w.buf.clear();
}

/**
 * fork/exec one worker serving sweep `fingerprint`: specs arrive on
 * its stdin, results leave on fd 3, stdout goes to /dev/null (the
 * worker re-runs the whole driver main(), banners included), stderr
 * is inherited so crash breadcrumbs reach the user.
 */
bool
spawnWorker(std::uint64_t fingerprint, Worker &w)
{
    int cmd[2];
    int res[2];
    if (::pipe2(cmd, O_CLOEXEC) != 0)
        return false;
    if (::pipe2(res, O_CLOEXEC) != 0) {
        ::close(cmd[0]);
        ::close(cmd[1]);
        return false;
    }

    std::vector<std::string> args = g_argv;
    args.push_back(strprintf(
        "--fs-worker=%016llx",
        static_cast<unsigned long long>(fingerprint)));

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(cmd[0]);
        ::close(cmd[1]);
        ::close(res[0]);
        ::close(res[1]);
        return false;
    }
    if (pid == 0) {
        // Child. Lift the pipe ends clear of fds 0-3 first (F_DUPFD
        // drops the close-on-exec flag), then wire the worker's
        // world: specs on 0, /dev/null on 1, results on 3.
        int cmd_in = ::fcntl(cmd[0], F_DUPFD, 10);
        int res_out = ::fcntl(res[1], F_DUPFD, 10);
        int devnull = ::open("/dev/null", O_WRONLY);
        if (cmd_in < 0 || res_out < 0 || devnull < 0)
            std::_Exit(127);
        if (::dup2(cmd_in, 0) < 0 || ::dup2(devnull, 1) < 0 ||
            ::dup2(res_out, 3) < 0)
            std::_Exit(127);

        std::vector<char *> cargv;
        cargv.reserve(args.size() + 1);
        for (std::string &a : args)
            cargv.push_back(a.data());
        cargv.push_back(nullptr);
        ::execv(g_exePath.c_str(), cargv.data());
        // Exec failure is only reportable via the exit status; the
        // parent decodes 127 into a crash outcome.
        std::_Exit(127);
    }

    // Parent keeps the spec write end and the result read end.
    ::close(cmd[0]);
    ::close(res[1]);
    w.pid = pid;
    w.cmdFd = cmd[1];
    w.resFd = res[0];
    w.buf.clear();
    w.busy = false;
    w.deadlineNs = 0;
    w.hardKilled = false;
    return true;
}

/** waitpid the worker and render its death as a FAILED(...) label
 *  component: "SIGSEGV", "exit:127", ... */
std::string
reapWorker(Worker &w)
{
    int st = 0;
    pid_t r;
    do {
        r = ::waitpid(w.pid, &st, 0);
    } while (r < 0 && errno == EINTR);
    w.pid = -1;
    closeWorkerFds(w);
    if (r < 0)
        return "lost";
    if (WIFSIGNALED(st))
        return signalName(WTERMSIG(st));
    if (WIFEXITED(st))
        return strprintf("exit:%d", WEXITSTATUS(st));
    return "unknown";
}

} // namespace

std::vector<CellOutcome<std::string>>
runProcessFarm(const std::vector<std::size_t> &missing,
               std::uint64_t fingerprint,
               const ProcExecutorConfig &cfg,
               const std::function<void(std::size_t,
                                        const std::string &)>
                   &on_payload)
{
    // A worker can die between our poll() and our write(); EPIPE as
    // a return value is part of the protocol, SIGPIPE is not.
    struct sigaction ign{};
    struct sigaction prev_pipe{};
    ign.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ign, &prev_pipe);

    std::map<std::size_t, CellOutcome<std::string>> results;
    std::map<std::size_t, unsigned> kills;
    std::deque<std::size_t> pending(missing.begin(), missing.end());
    std::size_t inflight = 0;

    const std::size_t pool = std::max<std::size_t>(
        1, std::min<std::size_t>(cfg.workers, missing.size()));
    std::vector<Worker> workers(pool);

    // Workers that die without completing a single cell in between
    // make no progress; cap the carnage instead of respawning
    // forever (covers exec failures and crash-on-startup too).
    const unsigned death_cap =
        8 + cfg.poisonKills * static_cast<unsigned>(pool);
    unsigned consecutive_deaths = 0;
    bool stalled = false;

    auto fail_cell = [&](std::size_t cell, ErrorClass cls,
                         CellStatus status, std::string signal,
                         std::string error) {
        CellOutcome<std::string> o;
        o.status = status;
        o.errorClass = cls;
        o.crashSignal = std::move(signal);
        o.error = std::move(error);
        o.attempts = kills[cell] > 0 ? kills[cell] : 1;
        results[cell] = std::move(o);
    };

    // One worker death, observed either via result-pipe EOF or
    // after a hard-timeout SIGKILL: classify, requeue-or-quarantine
    // its cell, and leave the slot dead for the respawn pass.
    auto handle_death = [&](Worker &w) {
        bool was_busy = w.busy;
        std::size_t cell = w.cell;
        bool hard = w.hardKilled;
        std::string how = reapWorker(w);
        w.busy = false;
        if (!was_busy) {
            // Died idle (startup crash, exec failure, shutdown
            // race). No cell to blame.
            if (how != "exit:0")
                ++consecutive_deaths;
            return;
        }
        --inflight;
        if (hard) {
            // Resolving a cell — even by quarantine — is progress.
            consecutive_deaths = 0;
            fail_cell(cell, ErrorClass::HardTimeout,
                      CellStatus::TimedOut, "",
                      strprintf("worker SIGKILLed after exceeding "
                                "FS_WORKER_HARD_TIMEOUT_MS=%llu",
                                static_cast<unsigned long long>(
                                    cfg.hardTimeoutMs)));
            return; // a wedged cell stays wedged; never requeue
        }
        unsigned k = ++kills[cell];
        if (k >= cfg.poisonKills) {
            consecutive_deaths = 0;
            fail_cell(cell, ErrorClass::Crash, CellStatus::Failed,
                      how,
                      strprintf("worker died (%s) running cell %zu"
                                "%s", how.c_str(), cell,
                                k > 1 ? "; poison cell quarantined"
                                      : ""));
            return;
        }
        ++consecutive_deaths;
        // Requeue at the front: resolve the suspect cell before
        // feeding fresh ones to the replacement worker.
        pending.push_front(cell);
    };

    auto hard_deadline = [&](const Worker &w) -> std::uint64_t {
        return w.busy ? w.deadlineNs : 0;
    };

    while (results.size() < missing.size() && !stalled) {
        std::uint64_t now = steadyNowNs();

        // Respawn dead slots (honoring backoff) while there is
        // still work for them.
        for (Worker &w : workers) {
            if (w.alive() || pending.empty())
                continue;
            if (consecutive_deaths >= death_cap) {
                stalled = true;
                break;
            }
            if (w.respawnAtNs > now)
                continue;
            if (!spawnWorker(fingerprint, w)) {
                ++consecutive_deaths;
                w.respawnAtNs = now + 100 * 1000000ull;
                continue;
            }
            if (consecutive_deaths > 0 && cfg.respawnBackoffMs > 0) {
                unsigned shift =
                    std::min(consecutive_deaths - 1, 16u);
                std::uint64_t delay_ms = std::min<std::uint64_t>(
                    cfg.respawnBackoffMs << shift, 2000);
                // Gate the *next* respawn, not this one: backoff
                // paces repeated deaths without stalling recovery.
                w.respawnAtNs = now + delay_ms * 1000000ull;
            }
        }
        if (stalled)
            break;

        // Feed idle workers.
        for (Worker &w : workers) {
            if (!w.alive() || w.busy || pending.empty())
                continue;
            std::size_t cell = pending.front();
            pending.pop_front();
            std::string spec =
                procwire::encodeSpec(fingerprint, cell) + "\n";
            if (!writeAll(w.cmdFd, spec.data(), spec.size())) {
                // Worker died before the spec arrived — it cannot
                // have died *from* this cell, so requeue without a
                // kill mark and reap the corpse.
                pending.push_front(cell);
                handle_death(w);
                continue;
            }
            w.busy = true;
            w.cell = cell;
            ++inflight;
            w.deadlineNs =
                cfg.hardTimeoutMs > 0
                    ? now + cfg.hardTimeoutMs * 1000000ull
                    : 0;
        }

        // Wait for results, deaths, or the next deadline.
        std::vector<pollfd> fds;
        std::vector<std::size_t> fd_worker;
        std::uint64_t next_event = 0;
        for (std::size_t i = 0; i < workers.size(); ++i) {
            Worker &w = workers[i];
            if (!w.alive())
                continue;
            fds.push_back({w.resFd, POLLIN, 0});
            fd_worker.push_back(i);
            std::uint64_t d = hard_deadline(w);
            if (d != 0 && (next_event == 0 || d < next_event))
                next_event = d;
        }
        if (fds.empty()) {
            if (pending.empty() && inflight == 0)
                break; // nothing left to do
            // All workers dead but work remains: loop back to the
            // respawn pass after the shortest backoff.
            std::uint64_t wake = 0;
            for (const Worker &w : workers)
                if (w.respawnAtNs > now &&
                    (wake == 0 || w.respawnAtNs < wake))
                    wake = w.respawnAtNs;
            if (wake > now) {
                std::uint64_t ms = (wake - now) / 1000000ull + 1;
                ::poll(nullptr, 0,
                       static_cast<int>(std::min<std::uint64_t>(
                           ms, 2000)));
            }
            continue;
        }
        int timeout_ms = 200;
        now = steadyNowNs();
        if (next_event != 0) {
            std::uint64_t ms = next_event > now
                                   ? (next_event - now) / 1000000ull
                                   : 0;
            timeout_ms = static_cast<int>(
                std::min<std::uint64_t>(ms + 1, 200));
        }
        int nready = ::poll(fds.data(),
                            static_cast<nfds_t>(fds.size()),
                            timeout_ms);
        now = steadyNowNs();

        // Hard-timeout enforcement: SIGKILL, then reap via the
        // normal death path (the EOF arrives on the next poll).
        for (Worker &w : workers) {
            if (!w.alive() || !w.busy || w.hardKilled)
                continue;
            std::uint64_t d = hard_deadline(w);
            if (d != 0 && now >= d) {
                w.hardKilled = true;
                ::kill(w.pid, SIGKILL);
            }
        }

        if (nready <= 0)
            continue;
        for (std::size_t f = 0; f < fds.size(); ++f) {
            if (fds[f].revents == 0)
                continue;
            Worker &w = workers[fd_worker[f]];
            if (!w.alive())
                continue; // already reaped this pass
            char chunk[4096];
            ssize_t n;
            do {
                n = ::read(w.resFd, chunk, sizeof(chunk));
            } while (n < 0 && errno == EINTR);
            if (n <= 0) {
                handle_death(w);
                continue;
            }
            w.buf.append(chunk, static_cast<std::size_t>(n));
            std::size_t nl;
            while ((nl = w.buf.find('\n')) != std::string::npos) {
                std::string line = w.buf.substr(0, nl);
                w.buf.erase(0, nl + 1);
                std::size_t cell = 0;
                CellOutcome<std::string> o;
                try {
                    procwire::decodeResult(line, cell, o);
                } catch (const std::exception &e) {
                    warn("farm: dropping malformed result line "
                         "from worker %d: %s",
                         static_cast<int>(w.pid), e.what());
                    continue;
                }
                if (!w.busy || cell != w.cell) {
                    warn("farm: unexpected result for cell %zu "
                         "from worker %d; dropping", cell,
                         static_cast<int>(w.pid));
                    continue;
                }
                w.busy = false;
                --inflight;
                consecutive_deaths = 0; // progress
                if (o.ok() && on_payload)
                    on_payload(cell, *o.value);
                results[cell] = std::move(o);
            }
        }
    }

    if (stalled) {
        // Fail everything unfinished; the sweep still completes and
        // the manifest says why.
        for (Worker &w : workers) {
            if (!w.alive())
                continue;
            if (w.busy)
                pending.push_front(w.cell);
            ::kill(w.pid, SIGKILL);
            reapWorker(w);
        }
        for (std::size_t cell : pending)
            if (results.find(cell) == results.end())
                fail_cell(
                    cell, ErrorClass::Crash, CellStatus::Failed,
                    "farm-stalled",
                    strprintf("process farm stalled: %u "
                              "consecutive worker deaths with no "
                              "completed cell",
                              consecutive_deaths));
    }

    // Shutdown: closing the command pipes is the signal; workers
    // exit(0) on EOF. SIGKILL any straggler after a short grace so
    // a wedged worker cannot hang the sweep's exit.
    for (Worker &w : workers)
        if (w.cmdFd >= 0) {
            ::close(w.cmdFd);
            w.cmdFd = -1;
        }
    std::uint64_t grace_end = steadyNowNs() + 2000 * 1000000ull;
    for (Worker &w : workers) {
        if (!w.alive())
            continue;
        while (true) {
            int st = 0;
            pid_t r = ::waitpid(w.pid, &st, WNOHANG);
            if (r == w.pid || (r < 0 && errno != EINTR)) {
                w.pid = -1;
                closeWorkerFds(w);
                break;
            }
            if (steadyNowNs() >= grace_end) {
                ::kill(w.pid, SIGKILL);
                reapWorker(w);
                break;
            }
            ::poll(nullptr, 0, 10);
        }
    }

    ::sigaction(SIGPIPE, &prev_pipe, nullptr);

    std::vector<CellOutcome<std::string>> out;
    out.reserve(missing.size());
    for (std::size_t cell : missing) {
        auto it = results.find(cell);
        if (it != results.end()) {
            out.push_back(std::move(it->second));
            continue;
        }
        CellOutcome<std::string> o;
        o.status = CellStatus::Failed;
        o.errorClass = ErrorClass::Crash;
        o.crashSignal = "farm-stalled";
        o.error = "process farm exited before running this cell";
        o.attempts = 1;
        out.push_back(std::move(o));
    }
    return out;
}

} // namespace fscache
