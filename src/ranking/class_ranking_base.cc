#include "ranking/class_ranking_base.hh"

#include "common/log.hh"
#include "common/prefetch.hh"

namespace fscache
{

namespace
{

/** Largest class axis: classes must fit a u32 Fenwick index. */
constexpr std::uint32_t kMaxClasses = 1u << 31;

std::uint32_t
classCapacity(std::uint32_t classes)
{
    std::uint32_t cap = 1;
    while (cap < classes)
        cap <<= 1;
    return cap;
}

} // namespace

ClassRankingBase::ClassRankingBase(LineId num_lines,
                                   std::uint32_t classes)
    : axis_(num_lines), initialClasses_(classCapacity(classes)),
      lines_(num_lines)
{
}

void
ClassRankingBase::ensurePart(PartId part)
{
    if (part < parts_.size())
        return;
    // One-time growth per newly-seen partition id, bounded by the
    // partition count (witness: tests/test_hot_alloc.cc).
    parts_.resize(part + 1);
    for (Part &p : parts_) {
        if (p.classes.capacity() != 0)
            continue;
        p.classes.reset(initialClasses_);
        p.bucketAt.assign(initialClasses_, kNoBucket);
    }
}

void
ClassRankingBase::ensureClass(Part &p, std::uint32_t cls)
{
    if (cls < p.classes.capacity()) [[likely]]
        return;
    fs_assert(cls < kMaxClasses, "class beyond the class axis");
    std::uint32_t cap = p.classes.capacity();
    while (cap <= cls)
        cap <<= 1;
    // Growth is by doubling to cover the largest class: for LFU the
    // largest frequency, so at most log2(kFreqCap) growths per
    // partition and run.
    p.classes.grow(cap);
    // Doubling growth bounded by the largest class (see above;
    // witness: tests/test_hot_alloc.cc).
    p.bucketAt.resize(cap, kNoBucket);
}

std::uint32_t
ClassRankingBase::enter(PartId part, std::uint32_t cls,
                        std::uint32_t pos)
{
    Part &p = parts_[part];
    std::uint32_t b = p.bucketAt[cls];
    if (b == kNoBucket) {
        if (free_.empty()) {
            b = static_cast<std::uint32_t>(pool_.size());
            // The pool grows to the most buckets ever nonempty at
            // once, bounded by partitions x classes (witness:
            // tests/test_hot_alloc.cc).
            pool_.push_back({BitFenwick(axis_.capacity())});
            // Every bucket can be free at once: reserving here keeps
            // leave()'s push_back from allocating.
            free_.reserve(pool_.size());
        } else {
            b = free_.back();
            free_.pop_back();
        }
        pool_[b].cls = cls;
        pool_[b].part = part;
        p.bucketAt[cls] = b;
    }
    pool_[b].stamps.mark(pos);
    p.classes.mark(cls);
    return b;
}

void
ClassRankingBase::leave(std::uint32_t b, std::uint32_t pos)
{
    Bucket &bucket = pool_[b];
    Part &p = parts_[bucket.part];
    bucket.stamps.unmark(pos);
    p.classes.unmark(bucket.cls);
    if (bucket.stamps.total() == 0) {
        // Every mark is gone, so every bit and count is zero: the
        // bucket is reused as is.
        // enter() reserves room for every pooled bucket (witness:
        // tests/test_hot_alloc.cc).
        free_.push_back(b);
        p.bucketAt[bucket.cls] = kNoBucket;
    }
}

std::uint32_t
ClassRankingBase::newStamp(LineId id)
{
    if (axis_.full()) [[unlikely]] {
        // Re-stamp every line and set its bit in its bucket, then
        // count each bucket's words once: a mark() per line would
        // walk a word tree per line.
        axis_.compact();
        for (Bucket &bucket : pool_) {
            if (bucket.stamps.total() != 0)
                bucket.stamps.clear();
        }
        for (std::uint32_t pos = 0; pos < axis_.next(); ++pos) {
            Line &line = lines_[axis_.lineAt(pos)];
            line.stamp = pos;
            pool_[line.bucket].stamps.setBit(pos);
        }
        for (Bucket &bucket : pool_)
            bucket.stamps.recount();
    }
    std::uint32_t pos = axis_.assign(id);
    lines_[id].stamp = pos;
    return pos;
}

void
ClassRankingBase::place(LineId id, PartId part, std::uint32_t cls)
{
    fs_assert(!present(id), "placing an already-present line");
    ensurePart(part);
    Part &p = parts_[part];
    ensureClass(p, cls);
    ++p.size;
    std::uint32_t pos = newStamp(id);
    lines_[id].bucket = enter(part, cls, pos);
}

void
ClassRankingBase::touch(LineId id, std::uint32_t cls)
{
    Line &line = lines_[id];
    fs_assert(line.bucket != kNoBucket, "touching an absent line");
    Bucket &bucket = pool_[line.bucket];
    if (bucket.cls == cls) {
        // Same class: the line only moves to its bucket's newest
        // end, and the class counts stay as they are. A compaction
        // in between re-marks buckets but never adds or frees one.
        bucket.stamps.unmark(line.stamp);
        axis_.release(line.stamp);
        bucket.stamps.mark(newStamp(id));
        return;
    }
    PartId part = bucket.part;
    leave(line.bucket, line.stamp);
    axis_.release(line.stamp);
    ensureClass(parts_[part], cls);
    std::uint32_t pos = newStamp(id);
    line.bucket = enter(part, cls, pos);
}

void
ClassRankingBase::onEvict(LineId id)
{
    Line &line = lines_[id];
    fs_assert(line.bucket != kNoBucket, "removing an absent line");
    --parts_[pool_[line.bucket].part].size;
    leave(line.bucket, line.stamp);
    axis_.release(line.stamp);
    line = Line{};
}

void
ClassRankingBase::onRelocate(LineId from, LineId to)
{
    fs_assert(present(from) && !present(to),
              "bad relocation in ranking");
    // The record is line metadata that follows the line: the order
    // (and so every rank) is untouched, no index changes.
    axis_.move(lines_[from].stamp, to);
    lines_[to] = lines_[from];
    lines_[from] = Line{};
}

void
ClassRankingBase::onRetag(LineId id, PartId new_part)
{
    Line &line = lines_[id];
    fs_assert(line.bucket != kNoBucket, "retag of an absent line");
    // The line keeps its class and stamp, so its place in the order
    // is unchanged; only the partition it is counted under moves.
    ensurePart(new_part);
    std::uint32_t cls = pool_[line.bucket].cls;
    --parts_[pool_[line.bucket].part].size;
    leave(line.bucket, line.stamp);
    Part &to = parts_[new_part];
    ensureClass(to, cls);
    ++to.size;
    line.bucket = enter(new_part, cls, line.stamp);
}

double
ClassRankingBase::futilityOf(LineId id) const
{
    const Line &line = lines_[id];
    fs_assert(line.bucket != kNoBucket, "futility of an absent line");
    const Bucket &bucket = pool_[line.bucket];
    const Part &p = parts_[bucket.part];
    std::uint32_t rank = p.size - p.classes.countBelow(bucket.cls) -
                         bucket.stamps.countBelow(line.stamp);
    return static_cast<double>(rank) / static_cast<double>(p.size);
}

double
ClassRankingBase::exactFutility(LineId id) const
{
    return futilityOf(id);
}

void
ClassRankingBase::exactFutilityManyImpl(std::span<const LineId> ids,
                                        double *out) const
{
    for (std::size_t i = 0; i < ids.size(); ++i)
        out[i] = futilityOf(ids[i]);
}

void
ClassRankingBase::prefetch(LineId first, std::uint32_t count) const
{
    prefetchBytes(&lines_[first], count * sizeof(Line));
}

LineId
ClassRankingBase::worstIn(PartId part) const
{
    // Navigate off the class Fenwick's own total, not the size
    // counter: the fault hook may have drifted the counter, and
    // navigation must stay safe under that damage (audits, not
    // crashes, report it).
    if (part >= parts_.size() || parts_[part].classes.total() == 0)
        return kInvalidLine;
    const Part &p = parts_[part];
    std::uint32_t lowest = p.classes.select(0).pos;
    return axis_.lineAt(pool_[p.bucketAt[lowest]].stamps.select(0));
}

std::uint32_t
ClassRankingBase::partLines(PartId part) const
{
    return part < parts_.size() ? parts_[part].size : 0;
}

bool
ClassRankingBase::corruptRankNodeForFaultInjection()
{
    // Silently inflate the first non-empty partition's resident-line
    // counter. Navigation never reads it (see worstIn), so the
    // damage is crash-safe and visible only to the occupancy-sum
    // audit and the deep self-audit below.
    for (Part &p : parts_) {
        if (p.size > 0) {
            ++p.size;
            return true;
        }
    }
    return false;
}

std::string
ClassRankingBase::auditInvariants() const
{
    std::string err = axis_.audit(
        static_cast<LineId>(lines_.size()), [this](LineId id) {
            return present(id) ? lines_[id].stamp : StampAxis::kNoStamp;
        });
    if (!err.empty())
        return err;

    // Buckets against the class counts: a class holds a bucket iff
    // it counts lines, the bucket names that (partition, class) and
    // holds exactly that many marks, and no bucket serves two
    // classes.
    constexpr std::uint8_t kInUse = 1;
    constexpr std::uint8_t kFree = 2;
    std::vector<std::uint8_t> state(pool_.size(), 0);
    std::uint32_t marks = 0;
    for (std::size_t pi = 0; pi < parts_.size(); ++pi) {
        const Part &p = parts_[pi];
        std::uint32_t prev = 0;
        std::uint32_t cap = p.classes.capacity();
        if (p.bucketAt.size() != cap) {
            return strprintf("partition %zu has %zu bucket slots for "
                             "%u classes", pi, p.bucketAt.size(), cap);
        }
        for (std::uint32_t cls = 0; cls < cap; ++cls) {
            std::uint32_t cur = p.classes.countBelow(cls + 1);
            std::uint32_t count = cur - prev;
            prev = cur;
            std::uint32_t b = p.bucketAt[cls];
            if (b == kNoBucket) {
                if (count != 0) {
                    return strprintf("partition %zu counts %u lines "
                                     "in class %u but holds no "
                                     "bucket", pi, count, cls);
                }
                continue;
            }
            if (b >= pool_.size() || state[b] != 0) {
                return strprintf("partition %zu class %u holds bad "
                                 "or shared bucket %u", pi, cls, b);
            }
            state[b] = kInUse;
            const Bucket &bucket = pool_[b];
            if (bucket.part != pi || bucket.cls != cls) {
                return strprintf("partition %zu class %u holds bucket "
                                 "%u named for partition %u class %u",
                                 pi, cls, b,
                                 static_cast<unsigned>(bucket.part),
                                 bucket.cls);
            }
            if (count == 0 || bucket.stamps.total() != count) {
                return strprintf("partition %zu class %u counts %u "
                                 "lines but its bucket holds %u", pi,
                                 cls, count, bucket.stamps.total());
            }
            marks += count;
        }
        if (p.classes.countBelow(cap) != p.classes.total()) {
            return strprintf("partition %zu class total %u but "
                             "prefix sum %u", pi, p.classes.total(),
                             p.classes.countBelow(cap));
        }
        if (p.size != p.classes.total()) {
            return strprintf("partition %zu counts %u lines but "
                             "its classes hold %u", pi, p.size,
                             p.classes.total());
        }
    }

    // Every other bucket is free, listed once, and all zero.
    for (std::uint32_t b : free_) {
        if (b >= pool_.size() || state[b] != 0) {
            return strprintf("free bucket %u is in use or listed "
                             "twice", b);
        }
        state[b] = kFree;
        const BitFenwick &stamps = pool_[b].stamps;
        if (stamps.countBelow(stamps.capacity()) != 0 ||
            stamps.total() != 0) {
            return strprintf("free bucket %u holds marks", b);
        }
    }
    for (std::size_t b = 0; b < pool_.size(); ++b) {
        if (state[b] == 0)
            return strprintf("bucket %zu neither in use nor free", b);
    }

    // Every present line is marked at its stamp in a bucket in use.
    // With the bucket totals above, equal counts leave no stray
    // marks.
    std::uint32_t presentLines = 0;
    for (LineId id = 0; id < lines_.size(); ++id) {
        const Line &line = lines_[id];
        if (line.bucket == kNoBucket)
            continue;
        ++presentLines;
        if (line.bucket >= pool_.size() ||
            state[line.bucket] != kInUse) {
            return strprintf("present line %u in bad or free bucket "
                             "%u", id, line.bucket);
        }
        const BitFenwick &stamps = pool_[line.bucket].stamps;
        std::uint32_t pos = line.stamp;
        if (stamps.countBelow(pos + 1) - stamps.countBelow(pos) != 1) {
            return strprintf("present line %u unmarked at stamp %u in "
                             "bucket %u", id, pos, line.bucket);
        }
    }
    if (marks != presentLines) {
        return strprintf("%u present lines but buckets hold %u marks",
                         presentLines, marks);
    }
    return std::string();
}

} // namespace fscache
