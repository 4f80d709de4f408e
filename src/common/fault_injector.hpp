/**
 * @file
 * Deterministic fault injection ("chaos mode") for the driver stack.
 *
 * Real UVM runtimes survive transfer stalls, dropped shootdown acks, and
 * fault-service timeouts; the happy-path simulator never exercised the
 * code that must tolerate them.  The injector draws each event kind from
 * its own seeded PRNG stream, so adding a new injection site never
 * perturbs the decision sequence of an existing one and a fixed seed
 * replays the exact same fault schedule run after run.
 *
 * With ChaosConfig::enabled == false no injector is constructed at all:
 * every consumer holds a nullable pointer and the default path is
 * byte-identical to a build without this subsystem.
 */

#pragma once

#include <string>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "trace/trace_sink.hpp"

namespace hpe {

/** Per-event probabilities and latencies of the chaos subsystem. */
struct ChaosConfig
{
    bool enabled = false;

    /** Seed of the injector's PRNG streams (one stream per event kind). */
    std::uint64_t seed = 1;

    /** A page-migration PCIe transfer fails and must be retried. */
    double pcieFailProb = 0.0;

    /** A PCIe transfer is stalled (link held longer than the data needs). */
    double pcieStallProb = 0.0;

    /** Extra link occupancy of one injected stall. */
    static constexpr Cycle kPcieStallCycles = microsToCycles(5.0);

    /** A fault service times out and is replayed after backoff. */
    double serviceTimeoutProb = 0.0;

    /** A TLB-shootdown ack is dropped; the driver re-issues it. */
    double shootdownDropProb = 0.0;

    /** A page walk suffers a transient error and is re-walked. */
    double walkErrorProb = 0.0;

    /** fatal() on out-of-range probabilities. */
    void
    validate() const
    {
        for (double p : {pcieFailProb, pcieStallProb, serviceTimeoutProb,
                         shootdownDropProb, walkErrorProb})
            if (p < 0.0 || p > 1.0)
                fatal("chaos probability {} outside [0, 1]", p);
        // Walk errors and shootdown drops are retried without an attempt
        // bound (they are transient by definition); probability 1 would
        // retry forever.
        if (walkErrorProb >= 1.0)
            fatal("chaos walk-error probability must be < 1");
        if (shootdownDropProb >= 1.0)
            fatal("chaos shootdown-drop probability must be < 1");
    }
};

/** Seeded per-event-stream fault injector. */
class FaultInjector
{
  public:
    /**
     * @param cfg   event probabilities; validated here.
     * @param stats registry receiving "<name>.*" injection counts.
     * @param name  stat prefix, e.g. "chaos".
     */
    FaultInjector(const ChaosConfig &cfg, StatRegistry &stats,
                  const std::string &name = "chaos")
        : cfg_(cfg),
          pcieFailRng_(cfg.seed ^ 0x9e3779b97f4a7c15ULL),
          pcieStallRng_(cfg.seed ^ 0xbf58476d1ce4e5b9ULL),
          timeoutRng_(cfg.seed ^ 0x94d049bb133111ebULL),
          shootdownRng_(cfg.seed ^ 0xd6e8feb86659fd93ULL),
          walkRng_(cfg.seed ^ 0xa0761d6478bd642fULL),
          pcieFailures_(stats.counter(name + ".pcieFailures")),
          pcieStalls_(stats.counter(name + ".pcieStalls")),
          serviceTimeouts_(stats.counter(name + ".serviceTimeouts")),
          shootdownDrops_(stats.counter(name + ".shootdownDrops")),
          walkErrors_(stats.counter(name + ".walkErrors"))
    {
        cfg_.validate();
    }

    const ChaosConfig &config() const { return cfg_; }

    /** Attach a structured-event sink (nullable); each injected fault then
     *  emits a ChaosInjection event tagged with its stream. */
    void setTraceSink(trace::TraceSink *sink) { sink_ = sink; }

    /** Does this page-migration transfer fail? */
    bool
    pcieTransferFails()
    {
        return draw(pcieFailRng_, cfg_.pcieFailProb, pcieFailures_,
                    trace::ChaosKind::PcieFail);
    }

    /** Extra link-occupancy cycles of this transfer (0 = no stall). */
    Cycle
    pcieStallCycles()
    {
        return draw(pcieStallRng_, cfg_.pcieStallProb, pcieStalls_,
                    trace::ChaosKind::PcieStall)
                   ? ChaosConfig::kPcieStallCycles
                   : 0;
    }

    /** Does this fault service time out? */
    bool
    serviceTimesOut()
    {
        return draw(timeoutRng_, cfg_.serviceTimeoutProb, serviceTimeouts_,
                    trace::ChaosKind::ServiceTimeout);
    }

    /** Is this TLB-shootdown ack dropped? */
    bool
    shootdownDropped()
    {
        return draw(shootdownRng_, cfg_.shootdownDropProb, shootdownDrops_,
                    trace::ChaosKind::ShootdownDrop);
    }

    /** Does this page walk suffer a transient error? */
    bool
    walkErrors()
    {
        return draw(walkRng_, cfg_.walkErrorProb, walkErrors_,
                    trace::ChaosKind::WalkError);
    }

  private:
    bool
    draw(Rng &rng, double p, Counter &counter, trace::ChaosKind kind)
    {
        if (p <= 0.0)
            return false;
        if (!rng.chance(p))
            return false;
        ++counter;
        if (sink_ != nullptr)
            sink_->emit(trace::EventKind::ChaosInjection,
                        static_cast<std::uint8_t>(kind), 0, 0);
        return true;
    }

    ChaosConfig cfg_;
    trace::TraceSink *sink_ = nullptr;
    Rng pcieFailRng_;
    Rng pcieStallRng_;
    Rng timeoutRng_;
    Rng shootdownRng_;
    Rng walkRng_;
    Counter &pcieFailures_;
    Counter &pcieStalls_;
    Counter &serviceTimeouts_;
    Counter &shootdownDrops_;
    Counter &walkErrors_;
};

} // namespace hpe
