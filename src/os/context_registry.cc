/**
 * @file
 * Context registry implementation.
 */

#include "os/context_registry.hh"

#include "sim/log.hh"

namespace sonuma::os {

ContextRegistry::ContextRegistry(std::uint32_t maxContexts)
    : maxContexts_(maxContexts)
{
}

void
ContextRegistry::createContext(sim::CtxId ctx, UserId owner)
{
    if (ctx >= maxContexts_)
        sim::fatal("ctx_id " + std::to_string(ctx) + " out of range");
    if (contexts_.count(ctx))
        sim::fatal("ctx_id " + std::to_string(ctx) + " already exists");
    contexts_[ctx] = Entry{owner, {owner}};
}

void
ContextRegistry::grant(sim::CtxId ctx, UserId uid)
{
    auto it = contexts_.find(ctx);
    if (it == contexts_.end())
        sim::fatal("grant on unknown ctx_id " + std::to_string(ctx));
    it->second.acl.insert(uid);
}

bool
ContextRegistry::exists(sim::CtxId ctx) const
{
    return contexts_.count(ctx) > 0;
}

bool
ContextRegistry::allowed(sim::CtxId ctx, UserId uid) const
{
    auto it = contexts_.find(ctx);
    return it != contexts_.end() && it->second.acl.count(uid) > 0;
}

void
ContextRegistry::checkOpen(sim::CtxId ctx, UserId uid) const
{
    if (!exists(ctx))
        throw PermissionError("open of unknown ctx_id " +
                              std::to_string(ctx));
    if (!allowed(ctx, uid))
        throw PermissionError("uid " + std::to_string(uid) +
                              " may not open ctx_id " + std::to_string(ctx));
}

} // namespace sonuma::os
