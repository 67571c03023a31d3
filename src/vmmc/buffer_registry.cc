#include "vmmc/buffer_registry.hh"

#include "base/logging.hh"

namespace shrimp::vmmc
{

const char *
statusName(Status s)
{
    switch (s) {
      case Status::Ok:
        return "Ok";
      case Status::Misaligned:
        return "Misaligned";
      case Status::NoSuchExport:
        return "NoSuchExport";
      case Status::PermissionDenied:
        return "PermissionDenied";
      case Status::BadRange:
        return "BadRange";
      case Status::BadHandle:
        return "BadHandle";
      case Status::AlreadyExported:
        return "AlreadyExported";
      case Status::AlreadyBound:
        return "AlreadyBound";
      case Status::NotBound:
        return "NotBound";
      case Status::BadReply:
        return "BadReply";
    }
    return "?";
}

BufferRegistry::BufferRegistry(std::size_t page_bytes)
    : pageBytes_(page_bytes)
{
}

bool
BufferRegistry::add(ExportRecord rec)
{
    if (byKey_.count(rec.key))
        return false;
    PageNum first = rec.paddr / pageBytes_;
    PageNum last = PageNum((std::uint64_t(rec.paddr) + rec.len - 1) /
                           pageBytes_);
    for (PageNum p = first; p <= last; ++p) {
        if (byPage_.count(p))
            return false; // page already part of another export
    }
    for (PageNum p = first; p <= last; ++p)
        byPage_[p] = rec.key;
    byKey_[rec.key] = std::move(rec);
    return true;
}

ExportRecord *
BufferRegistry::find(std::uint32_t key)
{
    auto it = byKey_.find(key);
    return it == byKey_.end() ? nullptr : &it->second;
}

ExportRecord *
BufferRegistry::findByPAddr(PAddr paddr)
{
    auto it = byPage_.find(paddr / pageBytes_);
    return it == byPage_.end() ? nullptr : find(it->second);
}

void
BufferRegistry::remove(std::uint32_t key)
{
    auto it = byKey_.find(key);
    if (it == byKey_.end())
        panic("BufferRegistry::remove: no such export");
    const ExportRecord &rec = it->second;
    PageNum first = rec.paddr / pageBytes_;
    PageNum last = PageNum((std::uint64_t(rec.paddr) + rec.len - 1) /
                           pageBytes_);
    for (PageNum p = first; p <= last; ++p)
        byPage_.erase(p);
    byKey_.erase(it);
}

} // namespace shrimp::vmmc
