/**
 * @file
 * Shared types of the virtual memory-mapped communication (VMMC) API:
 * status codes, import/export permissions, automatic-update binding
 * options, and notification descriptors (paper section 2).
 */

#ifndef SHRIMP_VMMC_TYPES_HH
#define SHRIMP_VMMC_TYPES_HH

#include <cstdint>
#include <functional>

#include "base/types.hh"
#include "sim/task.hh"

namespace shrimp::vmmc
{

class Endpoint;

/** Result of a VMMC call. */
enum class Status : std::uint32_t
{
    Ok = 0,
    Misaligned,       //!< deliberate update requires word alignment
    NoSuchExport,     //!< import of an unknown (node, key)
    PermissionDenied, //!< export permissions exclude this importer
    BadRange,         //!< transfer or binding exceeds the mapped window
    BadHandle,        //!< stale or invalid import handle
    AlreadyExported,  //!< key already in use on this node
    AlreadyBound,     //!< local page already has an AU binding
    NotBound,         //!< unbind of a page with no AU binding
    BadReply,         //!< a peer's Ethernet reply was malformed
};

const char *statusName(Status s);

/**
 * Access rights attached to an exported receive buffer. A trusted third
 * party (the SHRIMP daemon) checks these at import time.
 */
struct Perm
{
    bool anyNode = true;
    NodeId node = invalidNode;
    bool anyPid = true;
    int pid = -1;

    bool
    allows(NodeId importer_node, int importer_pid) const
    {
        if (!anyNode && importer_node != node)
            return false;
        if (!anyPid && importer_pid != pid)
            return false;
        return true;
    }

    /** Restrict the importer to one node. */
    static Perm
    onlyNode(NodeId n)
    {
        Perm p;
        p.anyNode = false;
        p.node = n;
        return p;
    }
};

/** Per-binding configuration for automatic update. */
struct AuOptions
{
    /** Combine consecutive writes into one packet. */
    bool combinable = true;

    /** Flush a pending combined packet on hardware timeout. */
    bool timerEnabled = true;

    /** Request a notification at the receiver for every packet. */
    bool notify = false;
};

/** A delivered notification: which export, and where the data landed. */
struct Notification
{
    std::uint32_t exportKey = 0;
    std::size_t offset = 0; //!< byte offset of the arrival within the export
};

/**
 * User-level handler invoked (at user level, in the receiving process)
 * when a notification is delivered for an exported buffer.
 */
using NotifyHandler =
    std::function<sim::Task<>(Endpoint &, const Notification &)>;

/** Result of an import call. */
struct ImportResult
{
    Status status = Status::Ok;
    int handle = -1;
};

} // namespace shrimp::vmmc

#endif // SHRIMP_VMMC_TYPES_HH
