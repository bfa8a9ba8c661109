/**
 * @file
 * Fixed-size callback type for the simulation hot path.
 *
 * `sim::Callback` replaces `std::function<void()>` everywhere events are
 * scheduled. It is 32 bytes: an invoke pointer and 24 bytes of inline
 * storage. Every callable the simulator schedules is a lambda over
 * pointers, handles, indices or small PODs, so the capture must be
 * trivially copyable, trivially destructible and at most 24 bytes;
 * anything else is rejected at compile time (the constructor is
 * constrained, so `std::is_constructible_v<Callback, F>` tells). A
 * capture that needs more state parks it in an owner's slot table and
 * captures `{owner, slot}` instead (see `slot_pool.hh`).
 *
 * With that contract a move is a 32-byte copy and destruction is a
 * no-op: there is no heap fallback, no per-type operations table and no
 * destructor call.
 *
 * Semantics: move-only (a moved-from Callback is empty), nullable,
 * repeatedly invocable. Invoking an empty Callback is undefined
 * (asserts in debug builds).
 */

#ifndef SONUMA_SIM_CALLBACK_HH
#define SONUMA_SIM_CALLBACK_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace sonuma::sim {

class Callback;

/** Bytes of inline storage in a Callback. */
inline constexpr std::size_t kCallbackInlineBytes = 24;

/** A callable a Callback can hold: small, trivially copyable, void(). */
template <typename F>
concept CallbackTarget =
    !std::is_same_v<std::remove_cvref_t<F>, Callback> &&
    std::is_invocable_r_v<void, std::decay_t<F> &> &&
    sizeof(std::decay_t<F>) <= kCallbackInlineBytes &&
    alignof(std::decay_t<F>) <= alignof(std::uint64_t) &&
    std::is_trivially_copyable_v<std::decay_t<F>> &&
    std::is_trivially_destructible_v<std::decay_t<F>>;

class Callback
{
  public:
    static constexpr std::size_t kInlineBytes = kCallbackInlineBytes;

    Callback() noexcept = default;
    Callback(std::nullptr_t) noexcept {}

    template <typename F>
        requires CallbackTarget<F>
    Callback(F &&f) noexcept
    {
        emplace(std::forward<F>(f));
    }

    Callback(Callback &&o) noexcept : invoke_(o.invoke_), storage_(o.storage_)
    {
        o.invoke_ = nullptr;
    }

    Callback &
    operator=(Callback &&o) noexcept
    {
        const auto invoke = o.invoke_;
        o.invoke_ = nullptr;
        storage_ = o.storage_;
        invoke_ = invoke;
        return *this;
    }

    Callback &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    template <typename F>
        requires CallbackTarget<F>
    Callback &
    operator=(F &&f) noexcept
    {
        emplace(std::forward<F>(f));
        return *this;
    }

    Callback(const Callback &) = delete;
    Callback &operator=(const Callback &) = delete;

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

    void
    operator()()
    {
        assert(invoke_ && "invoking an empty Callback");
        invoke_(storage_.bytes);
    }

    /** Drop the held callable. */
    void reset() noexcept { invoke_ = nullptr; }

  private:
    struct Storage
    {
        alignas(std::uint64_t) unsigned char bytes[kInlineBytes];
    };

    void (*invoke_)(void *) = nullptr;
    Storage storage_{};

    template <typename F>
    void
    emplace(F &&f) noexcept
    {
        using Fn = std::decay_t<F>;
        ::new (static_cast<void *>(storage_.bytes)) Fn(std::forward<F>(f));
        invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
    }
};

static_assert(sizeof(Callback) == 32);
static_assert(std::is_trivially_destructible_v<Callback>);

} // namespace sonuma::sim

#endif // SONUMA_SIM_CALLBACK_HH
