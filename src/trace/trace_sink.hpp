/**
 * @file
 * Ring-buffered structured-event sink with a running FNV-1a digest.
 *
 * Components emit through a nullable `TraceSink *`; with no sink attached
 * the hot path costs exactly one pointer test and allocates nothing.  When
 * attached, each accepted event
 *
 *  - folds into a 64-bit FNV-1a digest (over an explicit little-endian
 *    byte encoding, so the value is platform-stable), and
 *  - lands in a fixed-capacity ring that keeps the most recent events for
 *    export (overflow overwrites the oldest and is counted, never fatal).
 *
 * The digest covers *every* accepted event, including ones the ring has
 * since dropped — two runs with different ring capacities still agree on
 * the digest, which is what CI's regen-check job compares.
 *
 * Sinks are strictly per-simulation objects: a parallel sweep gives each
 * job its own sink and reduces the digests in job-index order, so any
 * derived output is byte-identical for every --jobs value.
 */

#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/log.hpp"
#include "trace/events.hpp"

namespace hpe::trace {

/**
 * 64-bit FNV-1a over explicit little-endian words or raw bytes
 * (platform-stable): trace digests, request fingerprints, journal
 * checksums and shard routing all hash through it.
 */
class Fnv1a
{
  public:
    static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ULL;

    /** @param basis start value; the journal pins a non-standard one. */
    explicit Fnv1a(std::uint64_t basis = kOffsetBasis) : hash_(basis) {}

    /** Fold one 64-bit value, least-significant byte first. */
    void
    fold(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xffu;
            hash_ *= kPrime;
        }
    }

    /** Fold every byte of @p bytes, in order. */
    void
    fold(std::string_view bytes)
    {
        for (const unsigned char c : bytes) {
            hash_ ^= c;
            hash_ *= kPrime;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    static constexpr std::uint64_t kPrime = 1099511628211ULL;
    std::uint64_t hash_;
};

/** Format @p digest as the canonical 16-hex-digit string. */
inline std::string
digestHex(std::uint64_t digest)
{
    static const char *hex = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = hex[digest & 0xf];
        digest >>= 4;
    }
    return out;
}

/**
 * Reduce per-job digests to one value, order-sensitively — callers must
 * pass them in job-index order so the result is parallelism-independent.
 */
inline std::uint64_t
combineDigests(std::span<const std::uint64_t> digests)
{
    Fnv1a fnv;
    for (std::uint64_t d : digests)
        fnv.fold(d);
    return fnv.value();
}

/** Ring-buffered event sink; see file comment for the contract. */
class TraceSink
{
  public:
    struct Config
    {
        /** Events retained for export; older ones are digest-only. */
        std::size_t ringCapacity = 1u << 16;
        /** Kinds to accept; others are ignored entirely. */
        EventMask mask = kAllEvents;
    };

    TraceSink() : TraceSink(Config{}) {}

    explicit TraceSink(const Config &cfg) : cfg_(cfg)
    {
        HPE_ASSERT(cfg_.ringCapacity > 0, "trace ring capacity must be > 0");
        ring_.reserve(cfg_.ringCapacity);
    }

    /** Does the filter accept @p kind?  Callers may pre-test to skip
     *  argument computation; emit() re-checks regardless. */
    bool wants(EventKind kind) const { return (cfg_.mask & maskOf(kind)) != 0; }

    /**
     * Advance the sink clock to @p t (monotonic; earlier values are
     * ignored).  The component that owns the run's notion of time calls
     * this — the paging simulator per reference, the timing driver per
     * service — so emitters without a clock can use emit().
     */
    void
    advanceTo(std::uint64_t t)
    {
        if (t > now_)
            now_ = t;
    }

    /** Current sink clock. */
    std::uint64_t now() const { return now_; }

    /** Emit at the sink clock's current time. */
    void
    emit(EventKind kind, std::uint8_t sub, std::uint64_t page, std::uint64_t value)
    {
        emitAt(now_, kind, sub, page, value);
    }

    /** Emit with an explicit timestamp (component owns a clock). */
    void
    emitAt(std::uint64_t time, EventKind kind, std::uint8_t sub,
           std::uint64_t page, std::uint64_t value)
    {
        if (!wants(kind))
            return;
        digest_.fold((static_cast<std::uint64_t>(kind) << 8)
                     | static_cast<std::uint64_t>(sub));
        digest_.fold(time);
        digest_.fold(page);
        digest_.fold(value);
        ++emitted_;

        const TraceEvent ev{time, page, value, kind, sub};
        if (ring_.size() < cfg_.ringCapacity) {
            ring_.push_back(ev);
        } else {
            ring_[head_] = ev;
            head_ = (head_ + 1) % cfg_.ringCapacity;
            ++dropped_;
        }
    }

    /** Digest over every accepted event so far. */
    std::uint64_t digest() const { return digest_.value(); }

    /** digest() formatted as 16 hex digits. */
    std::string digestHexString() const { return digestHex(digest()); }

    /** Events accepted (filter passed), including ring-dropped ones. */
    std::uint64_t emitted() const { return emitted_; }

    /** Events overwritten by ring overflow. */
    std::uint64_t dropped() const { return dropped_; }

    const Config &config() const { return cfg_; }

    /** Ring contents in emission order (oldest retained event first). */
    std::vector<TraceEvent>
    events() const
    {
        std::vector<TraceEvent> out;
        out.reserve(ring_.size());
        for (std::size_t i = 0; i < ring_.size(); ++i)
            out.push_back(ring_[(head_ + i) % ring_.size()]);
        return out;
    }

  private:
    Config cfg_;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0; ///< oldest element once the ring is full
    std::uint64_t now_ = 0;
    std::uint64_t emitted_ = 0;
    std::uint64_t dropped_ = 0;
    Fnv1a digest_;
};

} // namespace hpe::trace
