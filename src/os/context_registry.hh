/**
 * @file
 * Cluster-wide context namespace and access control (paper §5.1).
 *
 * soNUMA's security model grants access per ctx_id: joining a global
 * address space means opening /dev/rmc_contexts/<ctx_id>, which succeeds
 * only with appropriate permissions. All OS instances of one soNUMA
 * fabric are a single administrative domain, so the registry is a
 * cluster-level singleton owned by the Cluster.
 */

#ifndef SONUMA_OS_CONTEXT_REGISTRY_HH
#define SONUMA_OS_CONTEXT_REGISTRY_HH

#include <cstdint>
#include <map>
#include <set>

#include "os/node_os.hh"
#include "sim/types.hh"

namespace sonuma::os {

/**
 * Registry of global contexts: creation, permissions, membership.
 */
class ContextRegistry
{
  public:
    explicit ContextRegistry(std::uint32_t maxContexts = 16);

    /**
     * Create context @p ctx owned by @p owner. The owner is implicitly
     * allowed to open it.
     */
    void createContext(sim::CtxId ctx, UserId owner);

    /** Grant @p uid permission to open @p ctx. */
    void grant(sim::CtxId ctx, UserId uid);

    bool exists(sim::CtxId ctx) const;

    /** @retval true when @p uid may open @p ctx. */
    bool allowed(sim::CtxId ctx, UserId uid) const;

    /** Throwing check used by the driver's open path. */
    void checkOpen(sim::CtxId ctx, UserId uid) const;

  private:
    struct Entry
    {
        UserId owner;
        std::set<UserId> acl;
    };

    std::uint32_t maxContexts_;
    std::map<sim::CtxId, Entry> contexts_;
};

} // namespace sonuma::os

#endif // SONUMA_OS_CONTEXT_REGISTRY_HH
