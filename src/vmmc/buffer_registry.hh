/**
 * @file
 * BufferRegistry: the per-node table of exported receive buffers, kept
 * by the trusted SHRIMP daemon. Maps export keys to buffer descriptors
 * and supports reverse lookup by physical page (for routing incoming
 * notifications to the owning process).
 */

#ifndef SHRIMP_VMMC_BUFFER_REGISTRY_HH
#define SHRIMP_VMMC_BUFFER_REGISTRY_HH

#include <cstdint>
#include <map>
#include <vector>

#include "base/types.hh"
#include "vmmc/types.hh"

namespace shrimp::vmmc
{

/** One importer of an export (for revocation at unexport time). */
struct ImporterRecord
{
    NodeId node = invalidNode;
    int pid = -1;
    std::uint32_t slot = 0; //!< OPT import slot on the importing node
};

/** One exported receive buffer. */
struct ExportRecord
{
    std::uint32_t key = 0;
    int pid = -1;
    Endpoint *owner = nullptr;
    VAddr vaddr = 0;
    PAddr paddr = 0;
    std::size_t len = 0; //!< page-granular (rounded up by the daemon)
    Perm perm;
    NotifyHandler handler;
    bool accepting = true; //!< false once unexport begins
    std::vector<ImporterRecord> importers;
};

class BufferRegistry
{
  public:
    explicit BufferRegistry(std::size_t page_bytes);

    /** Register an export. @return false if the key is already used. */
    bool add(ExportRecord rec);

    /** Find by key; nullptr if absent. */
    ExportRecord *find(std::uint32_t key);

    /** Find the export whose pages contain @p paddr; nullptr if none. */
    ExportRecord *findByPAddr(PAddr paddr);

    /** Remove an export (must exist). */
    void remove(std::uint32_t key);

    std::size_t numExports() const { return byKey_.size(); }

  private:
    std::size_t pageBytes_;
    std::map<std::uint32_t, ExportRecord> byKey_;
    std::map<PageNum, std::uint32_t> byPage_;
};

} // namespace shrimp::vmmc

#endif // SHRIMP_VMMC_BUFFER_REGISTRY_HH
