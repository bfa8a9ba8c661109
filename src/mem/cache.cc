/**
 * @file
 * Coherent cache hierarchy implementation.
 */

#include "mem/cache.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/log.hh"

namespace sonuma::mem {

namespace {

/** Host cache-line size the L1 tag array is aligned to. */
constexpr std::uintptr_t kHostLineBytes = 64;

static_assert(sizeof(L1Cache::LineInfo) == 16);
static_assert(kHostLineBytes % sizeof(L1Cache::LineInfo) == 0);

} // namespace

//
// ------------------------------- L1 -----------------------------------
//

L1Cache::L1Cache(sim::EventQueue &eq, sim::StatRegistry &stats,
                 std::string name, const CacheParams &params, L2Cache &l2)
    : eq_(eq), name_(std::move(name)), params_(params),
      latency_(params.latency()), l2_(l2),
      sets_(params.sizeBytes, params.assoc),
      ways_(std::size_t(sets_.count()) * params.assoc +
            kHostLineBytes / sizeof(LineInfo) - 1),
      set0_(ways_.data() +
            (-reinterpret_cast<std::uintptr_t>(ways_.data()) &
             (kHostLineBytes - 1)) / sizeof(LineInfo)),
      hits_(stats, name_ + ".hits", "L1 hits"),
      misses_(stats, name_ + ".misses", "L1 misses"),
      writebacks_(stats, name_ + ".writebacks", "L1 dirty evictions"),
      probes_(stats, name_ + ".probes", "coherence probes received"),
      upgrades_(stats, name_ + ".upgrades", "S->M upgrade requests")
{
    mshrs_.resize(params_.mshrs);
    // Reserve steady-state capacities up front: merged waiters are
    // bounded by the accesses in flight, putbacks by the transactions
    // in flight. Exceeding a reservation still works — it just pays one
    // amortized growth.
    waiters_.reserve(2 * params_.mshrs);
    pendingPutbacks_.reserve(params_.mshrs);
    l1Id_ = l2_.registerL1(this);
}

L1Cache::Mshr *
L1Cache::findMshr(PAddr line)
{
    for (std::size_t i = 0; i < mshrsInUse_; ++i) {
        if (mshrs_[i].line == line)
            return &mshrs_[i];
    }
    return nullptr;
}

bool
L1Cache::pendingPutback(PAddr line) const
{
    for (const PAddr p : pendingPutbacks_) {
        if (p == line)
            return true;
    }
    return false;
}

void
L1Cache::erasePendingPutback(PAddr line)
{
    for (auto &p : pendingPutbacks_) {
        if (p == line) {
            p = pendingPutbacks_.back();
            pendingPutbacks_.pop_back();
            return;
        }
    }
}

std::span<L1Cache::LineInfo>
L1Cache::waysOf(PAddr line) const
{
    return {set0_ + std::size_t(sets_(line)) * params_.assoc,
            params_.assoc};
}

L1Cache::LineInfo *
L1Cache::findLine(PAddr line)
{
    for (auto &way : waysOf(line)) {
        if (way.holds(line))
            return &way;
    }
    return nullptr;
}

L1Cache::State
L1Cache::stateOf(PAddr addr) const
{
    const PAddr line = lineOf(addr);
    for (const LineInfo &way : waysOf(line)) {
        if (way.holds(line))
            return way.state();
    }
    return State::kInvalid;
}

L1Cache::LineInfo *
L1Cache::allocLine(PAddr line)
{
    if (LineInfo *existing = findLine(line))
        return existing; // upgrade fill: line already resident

    const std::span<LineInfo> set = waysOf(line);
    LineInfo *victim = nullptr;
    for (auto &way : set) {
        if (!way.valid()) {
            victim = &way;
            break;
        }
    }
    if (!victim) {
        for (auto &way : set) {
            // Never victimize a line with an outstanding transaction.
            if (findMshr(way.tag()))
                continue;
            if (!victim || way.lastUse < victim->lastUse)
                victim = &way;
        }
    }
    assert(victim && "no evictable way (all have pending MSHRs)");

    if (victim->state() == State::kModified) {
        writebacks_.inc();
        pendingPutbacks_.push_back(victim->tag());
        l2_.putback(l1Id_, victim->tag());
    }
    victim->set(line, State::kInvalid);
    return victim;
}

void
L1Cache::access(PAddr addr, bool write, sim::Callback done)
{
    accessImpl(addr, write, false, std::move(done));
}

void
L1Cache::accessFullLineWrite(PAddr addr, sim::Callback done)
{
    accessImpl(addr, true, true, std::move(done));
}

void
L1Cache::accessImpl(PAddr addr, bool write, bool fullLine,
                    sim::Callback done)
{
    const PAddr line = lineOf(addr);
    const std::uint32_t slot = accessSlots_.put(
        PendingAccess{line, write, fullLine, std::move(done)});
    eq_.scheduleAfter(latency_, [this, slot] { fireAccess(slot); },
                      waysOf(line).data());
}

void
L1Cache::fireAccess(std::uint32_t slot)
{
    PendingAccess p = accessSlots_.take(slot);
    const PAddr line = p.addr;
    LineInfo *info = findLine(line);
    const bool read_hit = info && !p.write;
    const bool write_hit = info && p.write &&
                           info->state() == State::kModified;
    if (read_hit || write_hit) {
        hits_.inc();
        info->lastUse = eq_.now();
        p.done();
        return;
    }
    if (info && p.write && info->state() == State::kShared)
        upgrades_.inc();
    misses_.inc();
    startMiss(line, p.write, p.fullLine, std::move(p.done));
}

void
L1Cache::startMiss(PAddr line, bool write, bool fullLine,
                   sim::Callback done)
{
    if (Mshr *hit = findMshr(line)) {
        // Merge into the outstanding transaction; incompatible waiters
        // (writes joining a read request) are retried after the fill.
        addWaiter(*hit, write, std::move(done));
        return;
    }
    if (mshrsInUse_ >= params_.mshrs) {
        blocked_.push(
            PendingAccess{line, write, fullLine, std::move(done)});
        return;
    }
    Mshr &mshr = mshrs_[mshrsInUse_++];
    mshr = Mshr{line, write, kNoWaiter, kNoWaiter};
    addWaiter(mshr, write, std::move(done));
    l2_.request(l1Id_, line, write, fullLine,
                [this, line, write] { handleFill(line, write); });
}

void
L1Cache::handleFill(PAddr line, bool grantedWrite)
{
    LineInfo *info = allocLine(line);
    info->setState(grantedWrite ? State::kModified : State::kShared);
    info->lastUse = eq_.now();

    Mshr *mshr = findMshr(line);
    assert(mshr);
    // Free the MSHR before draining its waiters: a waiter retry or
    // retryBlocked() below may start a fresh transaction on this same
    // line. The last busy MSHR moves into the freed slot to keep the
    // busy ones packed. The detached list stays parked in waiters_
    // until each entry is taken, and `next` is read before the take, so
    // a re-entrant access can reuse only slots already drained.
    std::uint32_t w = mshr->head;
    *mshr = mshrs_[--mshrsInUse_];
    while (w != kNoWaiter) {
        const std::uint32_t next = waiters_.peek(w).next;
        Waiter waiter = waiters_.take(w);
        w = next;
        if (!waiter.write || grantedWrite) {
            waiter.done();
        } else {
            // A write waiter on a read fill: retry as an upgrade.
            access(line, true, std::move(waiter.done));
        }
    }
    retryBlocked();
}

void
L1Cache::addWaiter(Mshr &mshr, bool write, sim::Callback done)
{
    const std::uint32_t w =
        waiters_.put(Waiter{write, std::move(done), kNoWaiter});
    if (mshr.tail == kNoWaiter)
        mshr.head = w;
    else
        waiters_.peek(mshr.tail).next = w;
    mshr.tail = w;
}

void
L1Cache::retryBlocked()
{
    // Retry only the entries present now; anything re-blocked by these
    // retries lands behind them and keeps its relative order.
    std::size_t n = blocked_.size();
    while (n-- > 0) {
        PendingAccess p = blocked_.popFront();
        startMiss(p.addr, p.write, p.fullLine, std::move(p.done));
    }
}

bool
L1Cache::handleProbe(PAddr line, bool invalidate)
{
    probes_.inc();
    if (pendingPutback(line)) {
        // Our PutM is in flight; answer the probe as the dirty owner.
        erasePendingPutback(line);
        return true;
    }
    LineInfo *info = findLine(line);
    if (!info)
        return false;
    const bool wasDirty = info->state() == State::kModified;
    if (invalidate)
        info->setState(State::kInvalid);
    else if (wasDirty)
        info->setState(State::kShared);
    return wasDirty;
}

//
// ------------------------------- L2 -----------------------------------
//

L2Cache::L2Cache(sim::EventQueue &eq, sim::StatRegistry &stats,
                 std::string name, const Params &params, DramChannel &dram)
    : eq_(eq), name_(std::move(name)), params_(params),
      latency_(params.latency()), probeLatency_(params.probeLatency()),
      dram_(dram),
      sets_(params.sizeBytes, params.assoc),
      hits_(stats, name_ + ".hits", "L2 hits"),
      misses_(stats, name_ + ".misses", "L2 misses"),
      c2c_(stats, name_ + ".c2cTransfers", "cache-to-cache transfers"),
      evictions_(stats, name_ + ".evictions", "L2 evictions"),
      dramRetries_(stats, name_ + ".dramRetries", "DRAM queue-full retries")
{
    setLines_.resize(sets_.count());
    for (SetLines &set : setLines_) {
        set.tags.reserve(params_.assoc);
        set.dirs.reserve(params_.assoc);
    }
}

int
L2Cache::registerL1(L1Cache *l1)
{
    l1s_.push_back(l1);
    assert(l1s_.size() <= 32 && "directory bitmask limited to 32 L1s");
    // Grow the lock table past this L1's worst-case contribution to
    // concurrent transactions (its MSHRs plus in-flight putbacks), so
    // steady-state locking never constructs a new entry whatever the
    // core count or MSHR depth.
    locks_.resize(locks_.size() + 2 * l1->params_.mshrs);
    return static_cast<int>(l1s_.size()) - 1;
}

L2Cache::LockEntry *
L2Cache::findLock(PAddr line)
{
    for (std::size_t i = 0; i < lockedCount_; ++i) {
        if (locks_[i].line == line)
            return &locks_[i];
    }
    return nullptr;
}

void
L2Cache::lockLine(PAddr line, PendingReq req)
{
    if (LockEntry *held = findLock(line)) {
        held->waiting.push(std::move(req));
        return;
    }
    if (lockedCount_ == locks_.size())
        locks_.emplace_back();
    locks_[lockedCount_++].line = line;
    startTransaction(line, std::move(req));
}

void
L2Cache::startTransaction(PAddr line, PendingReq req)
{
    const std::uint32_t slot =
        reqSlots_.put(ParkedReq{line, std::move(req)});
    eq_.scheduleAfter(latency_, [this, slot] { process(slot); },
                      setLines_[sets_(line)].tags.data());
}

void
L2Cache::unlockLine(PAddr line)
{
    LockEntry *held = findLock(line);
    assert(held && "unlock of a line that was never locked");
    if (held->waiting.empty()) {
        // Keep held entries packed; the freed entry (and its ring's
        // capacity) moves to the free tail.
        LockEntry &last = locks_[--lockedCount_];
        if (held != &last)
            std::swap(*held, last);
        return;
    }
    // Hand the lock straight to the next waiter (the entry stays
    // held), scheduling its processing exactly as lockLine would.
    startTransaction(line, held->waiting.popFront());
}

void
L2Cache::request(int requester, PAddr line, bool write, bool fullLine,
                 sim::Callback done)
{
    lockLine(line,
             PendingReq{requester, write, fullLine, false, std::move(done)});
}

void
L2Cache::putback(int requester, PAddr line)
{
    lockLine(line, PendingReq{requester, false, false, true, nullptr});
}

void
L2Cache::process(std::uint32_t slot)
{
    const ParkedReq &parked = reqSlots_.peek(slot);
    const PAddr line = parked.line;
    SetLines &set = setLines_[sets_(line)];
    const auto tag = std::find(set.tags.begin(), set.tags.end(), line);
    DirEntry *entry =
        tag == set.tags.end() ? nullptr : &set.dirs[tag - set.tags.begin()];

    if (parked.req.isPutback) {
        const int requester = reqSlots_.take(slot).req.requester;
        if (entry && entry->owner == requester) {
            entry->owner = -1;
            entry->sharers |= 1u << requester;
            entry->dirtyInL2 = true;
            entry->lastUse = eq_.now();
        }
        // Stale putbacks (owner already changed by a probe) are dropped.
        l1s_[static_cast<std::size_t>(requester)]->erasePendingPutback(line);
        unlockLine(line);
        return;
    }

    if (entry) {
        hits_.inc();
        finishRequest(slot, *entry);
        return;
    }

    misses_.inc();
    ensureCapacity(line, slot);
}

void
L2Cache::fillMissingLine(PAddr line, std::uint32_t slot)
{
    const PendingReq &req = reqSlots_.peek(slot).req;
    if (req.fullLine && req.write) {
        // The requester overwrites the entire line: allocate without
        // fetching stale bytes from DRAM (RMC line-wide interface).
        installLine(line, slot);
    } else {
        fetchFromDram(line, slot);
    }
}

void
L2Cache::installLine(PAddr line, std::uint32_t slot)
{
    SetLines &set = setLines_[sets_(line)];
    set.tags.push_back(line);
    DirEntry &dir = set.dirs.emplace_back();
    // Write-validate allocation.
    dir.dirtyInL2 = reqSlots_.peek(slot).req.fullLine;
    finishRequest(slot, dir);
}

void
L2Cache::finishRequest(std::uint32_t slot, DirEntry &dir)
{
    const ParkedReq &parked = reqSlots_.peek(slot);
    const PAddr line = parked.line;
    const PendingReq &req = parked.req;
    dir.lastUse = eq_.now();

    bool probed = false;
    const std::uint32_t reqBit = 1u << req.requester;

    if (req.write) {
        // GetM: invalidate every other copy.
        for (std::size_t i = 0; i < l1s_.size(); ++i) {
            const std::uint32_t bit = 1u << i;
            const bool holds = (dir.sharers & bit) ||
                               dir.owner == static_cast<int>(i);
            if (!holds || static_cast<int>(i) == req.requester)
                continue;
            probed = true;
            if (l1s_[i]->handleProbe(line, true)) {
                dir.dirtyInL2 = true;
                c2c_.inc();
            }
        }
        dir.sharers = 0;
        dir.owner = static_cast<std::int8_t>(req.requester);
    } else {
        // GetS: downgrade a remote owner if present.
        if (dir.owner != -1 && dir.owner != req.requester) {
            probed = true;
            if (l1s_[static_cast<std::size_t>(dir.owner)]->handleProbe(
                    line, false)) {
                dir.dirtyInL2 = true;
                c2c_.inc();
            }
            dir.sharers |= 1u << dir.owner;
            dir.owner = -1;
        } else if (dir.owner == req.requester) {
            // Read request from the current owner (e.g. after a silent
            // state downgrade we never see). Keep ownership.
        }
        dir.sharers |= reqBit;
    }

    // The completion fills the requester's L1 set.
    const sim::Tick extra = probed ? probeLatency_ : 0;
    eq_.scheduleAfter(
        extra, [this, slot] { fireCompletion(slot); },
        l1s_[static_cast<std::size_t>(req.requester)]->waysOf(line).data());
}

void
L2Cache::fireCompletion(std::uint32_t slot)
{
    ParkedReq parked = reqSlots_.take(slot);
    if (parked.req.done)
        parked.req.done();
    unlockLine(parked.line);
}

void
L2Cache::ensureCapacity(PAddr line, std::uint32_t slot)
{
    SetLines &set = setLines_[sets_(line)];
    const std::size_t n = set.tags.size();
    if (n < params_.assoc) {
        fillMissingLine(line, slot);
        return;
    }

    // Evict the LRU line in the set that is not locked or awaited; the
    // first in install order wins a tie.
    std::size_t at = n;
    for (std::size_t i = 0; i < n; ++i) {
        if (!findLock(set.tags[i]) &&
            (at == n || set.dirs[i].lastUse < set.dirs[at].lastUse))
            at = i;
    }
    if (at == n) {
        // Every line in the set is mid-transaction; retry shortly.
        eq_.scheduleAfter(latency_, [this, line, slot] {
            ensureCapacity(line, slot);
        });
        return;
    }

    evictions_.inc();
    const PAddr victim = set.tags[at];
    DirEntry &dir = set.dirs[at];
    // Inclusive hierarchy: back-invalidate all L1 copies.
    for (std::size_t i = 0; i < l1s_.size(); ++i) {
        const std::uint32_t bit = 1u << i;
        const bool holds = (dir.sharers & bit) ||
                           dir.owner == static_cast<int>(i);
        if (holds && l1s_[i]->handleProbe(victim, true))
            dir.dirtyInL2 = true;
    }
    if (dir.dirtyInL2)
        writebackToDram(victim);
    set.tags.erase(set.tags.begin() + at);
    set.dirs.erase(set.dirs.begin() + at);
    fillMissingLine(line, slot);
}

void
L2Cache::fetchFromDram(PAddr line, std::uint32_t slot)
{
    if (dram_.full()) {
        dramRetries_.inc();
        eq_.scheduleAfter(dram_.params().busTransfer, [this, line, slot] {
            fetchFromDram(line, slot);
        });
        return;
    }
    dram_.access(line, false, [this, line, slot] {
        installLine(line, slot);
    });
}

void
L2Cache::writebackToDram(PAddr line)
{
    if (!dram_.access(line, true, nullptr)) {
        dramRetries_.inc();
        eq_.scheduleAfter(dram_.params().busTransfer,
                          [this, line] { writebackToDram(line); });
    }
}

} // namespace sonuma::mem
