#include "ranking/class_ranking_base.hh"

#include "common/log.hh"

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
      classOf_(num_lines, 0), partOf_(num_lines, kInvalidPart),
      present_(num_lines, 0)
{
}

void
ClassRankingBase::ensurePart(PartId part)
{
    if (part < parts_.size())
        return;
    // fs-analyze: allow(hot-path-alloc) one-time growth per
    // newly-seen partition id, bounded by the partition count
    // (witness: tests/test_hot_alloc.cc).
    parts_.resize(part + 1);
    for (Part &p : parts_) {
        if (p.classes.capacity() != 0)
            continue;
        // fs-analyze: allow(hot-path-alloc) see above.
        p.classes.reset(initialClasses_);
        // fs-analyze: allow(hot-path-alloc) see above.
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
    // fs-analyze: allow(hot-path-alloc) doubling growth bounded by
    // the largest class (see above; witness: tests/test_hot_alloc.cc).
    p.bucketAt.resize(cap, kNoBucket);
}

void
ClassRankingBase::enter(Part &p, std::uint32_t cls, std::uint32_t pos)
{
    std::uint32_t b = p.bucketAt[cls];
    if (b == kNoBucket) {
        if (free_.empty()) {
            b = static_cast<std::uint32_t>(pool_.size());
            // fs-analyze: allow(hot-path-alloc) the pool grows to
            // the most buckets ever nonempty at once, bounded by
            // partitions x classes (witness: tests/test_hot_alloc.cc).
            pool_.emplace_back(axis_.capacity());
            // Every bucket can be free at once: reserving here keeps
            // leave()'s push_back from allocating.
            // fs-analyze: allow(hot-path-alloc) see above.
            free_.reserve(pool_.size());
        } else {
            b = free_.back();
            free_.pop_back();
        }
        p.bucketAt[cls] = b;
    }
    pool_[b].mark(pos);
    p.classes.mark(cls);
}

void
ClassRankingBase::leave(Part &p, std::uint32_t cls, std::uint32_t pos)
{
    std::uint32_t b = p.bucketAt[cls];
    pool_[b].unmark(pos);
    p.classes.unmark(cls);
    if (pool_[b].total() == 0) {
        // Every mark is gone, so every bit and count is zero: the
        // bucket is reused as is.
        // fs-analyze: allow(hot-path-alloc) enter() reserves room
        // for every pooled bucket (witness: tests/test_hot_alloc.cc).
        free_.push_back(b);
        p.bucketAt[cls] = kNoBucket;
    }
}

std::uint32_t
ClassRankingBase::newStamp(LineId id)
{
    if (axis_.full()) [[unlikely]] {
        axis_.compact();
        for (BitFenwick &bucket : pool_) {
            if (bucket.total() != 0)
                bucket.clear();
        }
        for (std::uint32_t pos = 0; pos < axis_.next(); ++pos) {
            LineId line = axis_.lineAt(pos);
            const Part &p = parts_[partOf_[line]];
            pool_[p.bucketAt[classOf_[line]]].mark(pos);
        }
    }
    return axis_.assign(id);
}

void
ClassRankingBase::place(LineId id, PartId part, std::uint32_t cls)
{
    fs_assert(!present_[id], "placing an already-present line");
    ensurePart(part);
    Part &p = parts_[part];
    ensureClass(p, cls);
    partOf_[id] = part;
    present_[id] = 1;
    classOf_[id] = cls;
    ++p.size;
    enter(p, cls, newStamp(id));
}

void
ClassRankingBase::touch(LineId id, std::uint32_t cls)
{
    fs_assert(present_[id], "touching an absent line");
    Part &p = parts_[partOf_[id]];
    std::uint32_t old = classOf_[id];
    if (cls == old) {
        // Same class: the line only moves to its bucket's newest
        // end, and the class counts stay as they are. A compaction
        // in between re-marks buckets but never returns one to the
        // pool, so the bucket stays this class's.
        BitFenwick &bucket = pool_[p.bucketAt[cls]];
        bucket.unmark(axis_.stampOf(id));
        axis_.release(id);
        bucket.mark(newStamp(id));
        return;
    }
    leave(p, old, axis_.stampOf(id));
    axis_.release(id);
    ensureClass(p, cls);
    classOf_[id] = cls;
    enter(p, cls, newStamp(id));
}

void
ClassRankingBase::onEvict(LineId id)
{
    fs_assert(present_[id], "removing an absent line");
    Part &p = parts_[partOf_[id]];
    leave(p, classOf_[id], axis_.stampOf(id));
    axis_.release(id);
    --p.size;
    present_[id] = 0;
    partOf_[id] = kInvalidPart;
    classOf_[id] = 0;
}

void
ClassRankingBase::onRelocate(LineId from, LineId to)
{
    fs_assert(present_[from] && !present_[to],
              "bad relocation in ranking");
    // Stamp and class are line metadata that follow the line: the
    // order (and so every rank) is untouched, no index changes.
    axis_.move(from, to);
    classOf_[to] = classOf_[from];
    partOf_[to] = partOf_[from];
    present_[to] = 1;
    present_[from] = 0;
    partOf_[from] = kInvalidPart;
    classOf_[from] = 0;
}

void
ClassRankingBase::onRetag(LineId id, PartId new_part)
{
    fs_assert(present_[id], "retag of an absent line");
    // The line keeps its class and stamp, so its place in the order
    // is unchanged; only the partition it is counted under moves.
    ensurePart(new_part);
    Part &from = parts_[partOf_[id]];
    Part &to = parts_[new_part];
    std::uint32_t cls = classOf_[id];
    std::uint32_t pos = axis_.stampOf(id);
    leave(from, cls, pos);
    --from.size;
    ensureClass(to, cls);
    enter(to, cls, pos);
    ++to.size;
    partOf_[id] = new_part;
}

std::uint32_t
ClassRankingBase::rankOf(LineId id) const
{
    const Part &p = parts_[partOf_[id]];
    std::uint32_t cls = classOf_[id];
    return p.size - p.classes.countBelow(cls) -
           pool_[p.bucketAt[cls]].countBelow(axis_.stampOf(id));
}

double
ClassRankingBase::exactFutility(LineId id) const
{
    fs_assert(present_[id], "futility of an absent line");
    return static_cast<double>(rankOf(id)) /
           static_cast<double>(parts_[partOf_[id]].size);
}

void
ClassRankingBase::exactFutilityManyImpl(std::span<const LineId> ids,
                                        double *out) const
{
    for (std::size_t i = 0; i < ids.size(); ++i) {
        LineId id = ids[i];
        fs_assert(present_[id], "futility of an absent line");
        out[i] = static_cast<double>(rankOf(id)) /
                 static_cast<double>(parts_[partOf_[id]].size);
    }
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
    return axis_.lineAt(pool_[p.bucketAt[lowest]].select(0));
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
    std::string err = axis_.audit(present_);
    if (!err.empty())
        return err;

    // Every present line is marked at its stamp in the bucket of its
    // (partition, class); absent lines are mapped nowhere.
    std::uint32_t presentLines = 0;
    for (LineId id = 0; id < present_.size(); ++id) {
        if (present_[id] == 0) {
            if (partOf_[id] != kInvalidPart) {
                return strprintf("absent line %u still mapped to "
                                 "partition %u", id,
                                 static_cast<unsigned>(partOf_[id]));
            }
            continue;
        }
        ++presentLines;
        if (partOf_[id] >= parts_.size()) {
            return strprintf("present line %u in untracked "
                             "partition %u", id,
                             static_cast<unsigned>(partOf_[id]));
        }
        std::uint32_t cls = classOf_[id];
        const Part &p = parts_[partOf_[id]];
        if (cls >= p.classes.capacity()) {
            return strprintf("present line %u in class %u beyond "
                             "its partition's class axis (%u)", id,
                             cls, p.classes.capacity());
        }
        std::uint32_t b = p.bucketAt[cls];
        std::uint32_t pos = axis_.stampOf(id);
        if (b == kNoBucket || b >= pool_.size() ||
            pool_[b].countBelow(pos + 1) - pool_[b].countBelow(pos) !=
                1) {
            return strprintf("present line %u unmarked in partition "
                             "%u's class %u bucket", id,
                             static_cast<unsigned>(partOf_[id]), cls);
        }
    }

    // Buckets against the class counts: a class holds a bucket iff
    // it counts lines, the bucket holds exactly that many marks, and
    // no bucket serves two classes. With every present line marked
    // in its own bucket above, equal totals leave no stray marks.
    std::vector<std::uint8_t> used(pool_.size(), 0);
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
            if (b >= pool_.size() || used[b] != 0) {
                return strprintf("partition %zu class %u holds bad "
                                 "or shared bucket %u", pi, cls, b);
            }
            used[b] = 1;
            if (count == 0 || pool_[b].total() != count) {
                return strprintf("partition %zu class %u counts %u "
                                 "lines but its bucket holds %u", pi,
                                 cls, count, pool_[b].total());
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
    if (marks != presentLines) {
        return strprintf("%u present lines but buckets hold %u marks",
                         presentLines, marks);
    }

    // Every other bucket is free, listed once, and all zero.
    for (std::uint32_t b : free_) {
        if (b >= pool_.size() || used[b] != 0) {
            return strprintf("free bucket %u is in use or listed "
                             "twice", b);
        }
        used[b] = 1;
        if (pool_[b].countBelow(pool_[b].capacity()) != 0 ||
            pool_[b].total() != 0) {
            return strprintf("free bucket %u holds marks", b);
        }
    }
    std::uint32_t inUse = 0;
    for (std::uint8_t u : used)
        inUse += u;
    if (inUse != pool_.size()) {
        return strprintf("%zu buckets pooled but %u in use or free",
                         pool_.size(), inUse);
    }
    return std::string();
}

} // namespace fscache
