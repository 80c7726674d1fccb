/**
 * @file
 * Crash-safe checkpoint/resume journal for sweeps.
 *
 * When FS_CHECKPOINT_DIR is set, a resilient sweep journals every
 * completed cell to
 *
 *     $FS_CHECKPOINT_DIR/<sweep-name>-<fingerprint>.jsonl
 *
 * where <fingerprint> hashes the sweep's configuration key (cell
 * count, workload scale, seeds — whatever the driver deems
 * identity-defining), so a resumed run can only ever pick up a
 * journal written by the *same* sweep. One JSONL record per cell:
 *
 *     {"cell":7,"v":"<hex-encoded payload>"}
 *
 * Durability: every record() rewrites the whole journal to a
 * temporary file, fsyncs it, renames it over the old one, and
 * fsyncs the containing directory — rename(2) is atomic on POSIX,
 * so a run killed at any instant leaves either the previous
 * journal or the new one, never a torn file, and the fsync pair
 * makes both the bytes and the rename itself survive a
 * power-loss-style kill (rename alone guarantees atomicity, not
 * persistence). (Sweeps are dozens of multi-second cells; the
 * O(cells^2) total write volume is noise.) A torn or foreign line
 * is skipped on load and that cell simply recomputes.
 *
 * Resume contract: values round-trip bit-exactly (CellEncoder
 * stores doubles by bit pattern), failed cells are never journaled
 * (a resume retries them), and a resumed sweep therefore renders
 * byte-identical output to an uninterrupted one while executing
 * only the missing cells.
 */

#ifndef FSCACHE_RUNNER_CHECKPOINT_HH
#define FSCACHE_RUNNER_CHECKPOINT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace fscache
{

/** 64-bit FNV-1a of a configuration key string. */
std::uint64_t fingerprint64(const std::string &key);

/**
 * Exact-round-trip value encoder for checkpoint payloads. Tokens
 * are space-separated; doubles are stored by bit pattern so the
 * decoded value is the encoded one, bit for bit.
 */
class CellEncoder
{
  public:
    CellEncoder &u64(std::uint64_t v);
    CellEncoder &f64(double v);
    CellEncoder &str(const std::string &s);

    const std::string &result() const { return buf_; }

  private:
    std::string buf_;
};

/** Inverse of CellEncoder; throws FsError on malformed payloads,
 *  including any spelling CellEncoder would not have produced (extra
 *  spaces, leading zeros, uppercase or signed hex). */
class CellDecoder
{
  public:
    explicit CellDecoder(std::string payload);

    std::uint64_t u64();
    double f64();
    std::string str();

    /** True when every token has been consumed. */
    bool done() const { return pos_ >= buf_.size(); }

  private:
    std::string nextToken(const char *what);

    std::string buf_;
    std::size_t pos_ = 0;
};

/** See file comment. */
class CheckpointJournal
{
  public:
    /**
     * Open (creating or loading) the journal for a sweep under
     * FS_CHECKPOINT_DIR. Returns nullptr when the variable is
     * unset/empty — checkpointing is strictly opt-in.
     *
     * @param sweep_name short stable name, e.g. "fig2"
     * @param config_key identity of the sweep's configuration;
     *        changing it changes the fingerprint and thus the file
     */
    static std::unique_ptr<CheckpointJournal>
    openFromEnv(const std::string &sweep_name,
                const std::string &config_key);

    /** As openFromEnv but with an explicit directory (tests). */
    static std::unique_ptr<CheckpointJournal>
    openAt(const std::string &dir, const std::string &sweep_name,
           const std::string &config_key);

    /** Cell -> encoded payload restored from a previous run. */
    const std::map<std::size_t, std::string> &
    restored() const
    {
        return entries_;
    }

    /**
     * Journal a completed cell (thread-safe; atomic
     * write-then-rename, see file comment).
     */
    void record(std::size_t cell, const std::string &payload);

    const std::string &path() const { return path_; }

  private:
    explicit CheckpointJournal(std::string path);

    void load();
    void flushLocked();

    // fs-analyze: allow(lock-discipline) const after construction
    // (set once in the ctor, read-only afterwards).
    std::string path_;
    std::mutex mu_;
    // fs-analyze: allow(lock-discipline) phase discipline: load()
    // fills it inside the ctor and restored() is read by the driver
    // before any worker starts; only record() runs concurrently and
    // it mutates under mu_ (flushLocked documents the held-lock
    // contract in its name). TSan covers the concurrent phase.
    std::map<std::size_t, std::string> entries_;
};

} // namespace fscache

#endif // FSCACHE_RUNNER_CHECKPOINT_HH
