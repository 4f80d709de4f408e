/**
 * @file
 * The structured-event vocabulary of the hpe::trace subsystem.
 *
 * Every observable state transition of the memory system maps onto one of
 * a small, closed set of typed events (which pages fault, get evicted,
 * migrate, move between hot/cold states, and so on).  An event is four
 * integers — kind, sub-kind, subject, value — plus a timestamp, so emission
 * is a handful of stores and the digest over the stream is platform-stable.
 *
 * Timestamps are *reference indices* in the functional simulator and
 * *cycles* in the timing simulator; both are deterministic for a fixed
 * (app, policy, seed), which is what makes trace digests usable as CI
 * golden values.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/comma_list.hpp"
#include "common/log.hpp"

namespace hpe::trace {

/** Typed event kinds, one bit each in an EventMask. */
enum class EventKind : std::uint8_t {
    FarFault = 0,   ///< page fault reached the driver (value bit0: refault)
    Eviction,       ///< a victim left GPU memory (value bit0: dirty)
    Migration,      ///< a page became resident (sub 0: fault, 1: prefetch)
    Promotion,      ///< HIR→LIR / chain re-activation (sub: PromotionScope)
    Demotion,       ///< LIR→HIR (sub: PromotionScope)
    ChainOp,        ///< page-set chain structure change (sub: ChainOpKind)
    TlbShootdown,   ///< translations of an evicted page invalidated
    PcieTransfer,   ///< link occupied (value: bytes)
    ChaosInjection, ///< injected fault (sub: ChaosKind)
    Degradation,    ///< thrashing-degradation transition (sub 0: enter, 1: exit)
    PolicySwitch,   ///< meta-policy changed its active candidate (sub: MetaSelector)
    Coalesce,       ///< huge-page promotion attempt (sub: CoalesceKind, value: span)
    Splinter,       ///< huge page splintered back to 4 KiB (value: span)
    kCount
};

/** Sub-kind values of PolicySwitch events (which selector decided). */
enum class MetaSelector : std::uint8_t {
    Duel = 0,   ///< set-dueling shadow-fault counters
    Bandit = 1, ///< epsilon-greedy/UCB bandit on interval fault rate
};

/** Scope discriminator for Promotion/Demotion events. */
enum class PromotionScope : std::uint8_t {
    ClockProPage = 0, ///< CLOCK-Pro cold(HIR) <-> hot(LIR) page transition
    HpePageSet = 1,   ///< HPE chain entry re-promoted to the new partition
};

/** Sub-kind values of ChainOp events. */
enum class ChainOpKind : std::uint8_t {
    Insert = 0,  ///< a page set entered the chain
    Remove = 1,  ///< a page set left the chain (all members evicted)
    Divide = 2,  ///< page-set division applied (§IV-C)
    Rotate = 3,  ///< interval rotation (P1 <- P2, P2 <- tail)
};

/** Sub-kind values of Coalesce events (how the promotion resolved). */
enum class CoalesceKind : std::uint8_t {
    InPlace = 0, ///< the run's frames were already aligned and contiguous
    Remap = 1,   ///< subpages remapped into a freshly claimed aligned run
    Blocked = 2, ///< fragmentation left no aligned free run (no promotion)
};

/** Sub-kind values of ChaosInjection events (one per injector stream). */
enum class ChaosKind : std::uint8_t {
    PcieFail = 0,
    PcieStall = 1,
    ServiceTimeout = 2,
    ShootdownDrop = 3,
    WalkError = 4,
};

/** One traced event.  POD; 40 bytes. */
struct TraceEvent
{
    std::uint64_t time = 0;  ///< refs (functional) or cycles (timing)
    std::uint64_t page = 0;  ///< subject: page, page set, or 0
    std::uint64_t value = 0; ///< payload: bytes, flags, or 0
    EventKind kind = EventKind::FarFault;
    std::uint8_t sub = 0;    ///< kind-specific discriminator
};

/** Bit set of EventKind values (bit n = kind n). */
using EventMask = std::uint32_t;

constexpr EventMask
maskOf(EventKind kind)
{
    return EventMask{1} << static_cast<unsigned>(kind);
}

inline constexpr EventMask kAllEvents =
    (EventMask{1} << static_cast<unsigned>(EventKind::kCount)) - 1;

/** Stable wire/CLI name of @p kind ("far_fault", "eviction", ...). */
inline const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::FarFault:       return "far_fault";
      case EventKind::Eviction:       return "eviction";
      case EventKind::Migration:      return "migration";
      case EventKind::Promotion:      return "promotion";
      case EventKind::Demotion:       return "demotion";
      case EventKind::ChainOp:        return "chain_op";
      case EventKind::TlbShootdown:   return "tlb_shootdown";
      case EventKind::PcieTransfer:   return "pcie_transfer";
      case EventKind::ChaosInjection: return "chaos";
      case EventKind::Degradation:    return "degradation";
      case EventKind::PolicySwitch:   return "policy_switch";
      case EventKind::Coalesce:       return "coalesce";
      case EventKind::Splinter:       return "splinter";
      case EventKind::kCount:         break;
    }
    return "?";
}

/** Inverse of eventKindName(); nullopt for unknown names. */
inline std::optional<EventKind>
eventKindByName(std::string_view name)
{
    for (unsigned k = 0; k < static_cast<unsigned>(EventKind::kCount); ++k)
        if (name == eventKindName(static_cast<EventKind>(k)))
            return static_cast<EventKind>(k);
    return std::nullopt;
}

/** Human-readable sub-kind label for reports; "" when unremarkable. */
inline const char *
subKindName(EventKind kind, std::uint8_t sub)
{
    switch (kind) {
      case EventKind::Migration:
        return sub == 1 ? "prefetch" : "fault";
      case EventKind::Promotion:
      case EventKind::Demotion:
        return sub == static_cast<std::uint8_t>(PromotionScope::HpePageSet)
                   ? "page_set"
                   : "page";
      case EventKind::ChainOp:
        switch (static_cast<ChainOpKind>(sub)) {
          case ChainOpKind::Insert: return "insert";
          case ChainOpKind::Remove: return "remove";
          case ChainOpKind::Divide: return "divide";
          case ChainOpKind::Rotate: return "rotate";
        }
        return "?";
      case EventKind::ChaosInjection:
        switch (static_cast<ChaosKind>(sub)) {
          case ChaosKind::PcieFail:       return "pcie_fail";
          case ChaosKind::PcieStall:      return "pcie_stall";
          case ChaosKind::ServiceTimeout: return "service_timeout";
          case ChaosKind::ShootdownDrop:  return "shootdown_drop";
          case ChaosKind::WalkError:      return "walk_error";
        }
        return "?";
      case EventKind::Degradation:
        return sub == 0 ? "enter" : "exit";
      case EventKind::PolicySwitch:
        return sub == static_cast<std::uint8_t>(MetaSelector::Bandit)
                   ? "bandit"
                   : "duel";
      case EventKind::Coalesce:
        switch (static_cast<CoalesceKind>(sub)) {
          case CoalesceKind::InPlace: return "in_place";
          case CoalesceKind::Remap:   return "remap";
          case CoalesceKind::Blocked: return "blocked";
        }
        return "?";
      default:
        return "";
    }
}

/**
 * Parse a comma-separated list of event-kind names into a mask
 * ("far_fault,eviction"); "" and "all" select every kind.  An unknown
 * name, or a list that names no kind at all (","), sets @p error and
 * returns nullopt — the one event-list grammar of the CLI and the wire.
 */
inline std::optional<EventMask>
parseEventMask(std::string_view list, std::string &error)
{
    if (list.empty() || list == "all")
        return kAllEvents;
    EventMask mask = 0;
    for (const std::string_view name : splitCommaList(list)) {
        const auto kind = eventKindByName(name);
        if (!kind.has_value()) {
            std::string known;
            for (unsigned k = 0; k < static_cast<unsigned>(EventKind::kCount);
                 ++k) {
                if (!known.empty())
                    known += ",";
                known += eventKindName(static_cast<EventKind>(k));
            }
            error = strformat("unknown trace event '{}' (expected one of {})",
                              std::string(name), known);
            return std::nullopt;
        }
        mask |= maskOf(*kind);
    }
    if (mask == 0) {
        error = "empty trace event list";
        return std::nullopt;
    }
    return mask;
}

/** parseEventMask() for callers that exit on a bad list: fatal(). */
inline EventMask
parseEventMask(std::string_view list)
{
    std::string error;
    const auto mask = parseEventMask(list, error);
    if (!mask.has_value())
        fatal("{}", error);
    return *mask;
}

} // namespace hpe::trace
