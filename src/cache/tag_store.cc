#include "cache/tag_store.hh"

#include "common/log.hh"

namespace fscache
{

TagStore::TagStore(LineId num_lines, bool indexed)
    : numLines_(num_lines), lines_(num_lines)
{
    fs_assert(num_lines > 0, "tag store needs at least one line");
    if (indexed)
        byAddr_.emplace(num_lines);
}

void
TagStore::growPart(PartId part)
{
    if (part >= partSize_.size())
        partSize_.resize(part + 1, 0);
}

void
TagStore::install(LineId id, Addr addr, PartId part)
{
    Line &l = lines_[id];
    fs_assert(!l.valid, "install into a valid slot");
    l.addr = addr;
    l.part = part;
    l.valid = true;
    // insert() asserts the address was absent.
    if (byAddr_)
        byAddr_->insert(addr, id);
    growPart(part);
    ++partSize_[part];
    ++validCount_;
}

void
TagStore::evict(LineId id)
{
    Line &l = lines_[id];
    fs_assert(l.valid, "evicting an invalid slot");
    if (byAddr_)
        byAddr_->erase(l.addr);
    --partSize_[l.part];
    --validCount_;
    l.valid = false;
    l.addr = kInvalidAddr;
    l.part = kInvalidPart;
}

void
TagStore::move(LineId from, LineId to)
{
    Line &src = lines_[from];
    Line &dst = lines_[to];
    fs_assert(src.valid && !dst.valid, "bad relocation");
    fs_assert(!byAddr_, "relocation in an indexed tag store");
    dst = src;
    src.valid = false;
    src.addr = kInvalidAddr;
    src.part = kInvalidPart;
}

void
TagStore::retag(LineId id, PartId part)
{
    Line &l = lines_[id];
    fs_assert(l.valid, "retag of an invalid slot");
    --partSize_[l.part];
    growPart(part);
    ++partSize_[part];
    l.part = part;
}

std::string
TagStore::auditInvariants() const
{
    if (byAddr_) {
        std::string err = byAddr_->auditInvariants();
        if (!err.empty())
            return "byAddr index: " + err;
    }

    std::vector<std::uint32_t> perPart(partSize_.size(), 0);
    LineId valid = 0;
    for (LineId id = 0; id < numLines_; ++id) {
        const Line &l = lines_[id];
        if (!l.valid)
            continue;
        ++valid;
        if (l.addr == kInvalidAddr) {
            return strprintf("valid line %u carries the invalid "
                             "address sentinel", id);
        }
        const LineId *slot =
            byAddr_ ? byAddr_->find(l.addr) : nullptr;
        if (byAddr_ && slot == nullptr) {
            return strprintf(
                "valid line %u (addr %llu) missing from the "
                "address index", id,
                static_cast<unsigned long long>(l.addr));
        }
        if (slot != nullptr && *slot != id) {
            return strprintf(
                "address %llu resolves to line %u but line %u "
                "carries it",
                static_cast<unsigned long long>(l.addr), *slot, id);
        }
        if (l.part < perPart.size())
            ++perPart[l.part];
        else
            return strprintf("line %u tagged with partition %u "
                             "beyond the occupancy vector", id,
                             static_cast<unsigned>(l.part));
    }
    if (valid != validCount_) {
        return strprintf("validCount %u but %u lines are valid",
                         validCount_, valid);
    }
    if (byAddr_ && byAddr_->size() != valid) {
        return strprintf("address index holds %zu entries for %u "
                         "valid lines", byAddr_->size(), valid);
    }
    for (std::size_t p = 0; p < perPart.size(); ++p) {
        if (perPart[p] != partSize_[p]) {
            return strprintf(
                "partition %zu occupancy counter %u but %u lines "
                "are tagged with it", p, partSize_[p], perPart[p]);
        }
    }
    return std::string();
}

void
TagStore::rewriteAddrForFaultInjection(LineId id, Addr addr)
{
    fs_assert(lines_[id].valid, "rewriting an invalid slot");
    if (byAddr_)
        byAddr_->erase(lines_[id].addr);
    lines_[id].addr = addr;
}

PartId
TagStore::corruptOccupancyForFaultInjection()
{
    for (std::size_t p = 0; p < partSize_.size(); ++p) {
        if (partSize_[p] > 0) {
            ++partSize_[p];
            return static_cast<PartId>(p);
        }
    }
    return kInvalidPart;
}

} // namespace fscache
