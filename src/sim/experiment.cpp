#include "sim/experiment.hpp"

#include <cmath>

#include "common/log.hpp"

namespace hpe {

std::size_t
framesFor(const Trace &trace, double oversub)
{
    HPE_ASSERT(oversub > 0.0 && oversub <= 1.0, "bad oversubscription rate {}", oversub);
    const auto fp = static_cast<double>(trace.footprintPages());
    const auto frames = static_cast<std::size_t>(std::ceil(fp * oversub));
    return frames > 0 ? frames : 1;
}

InspectableRun
runFunctionalInspect(const Trace &trace, PolicyKind kind, const RunConfig &cfg,
                     const TraceAttachments &attach)
{
    InspectableRun run;
    run.stats = std::make_unique<StatRegistry>();
    run.policy = makePolicy(kind, trace, *run.stats, cfg.hpe, cfg.seed);
    // The GpuConfig carries the resilience knobs for both modes; the
    // functional path honours the ones that exist without timing.
    PagingOptions opts{.degradation = cfg.gpu.degradation,
                       .validate = cfg.gpu.validate,
                       .sink = attach.sink,
                       .intervals = attach.intervals,
                       .faultBatch = cfg.gpu.driver.batchSize,
                       .prefetch = cfg.gpu.driver.prefetch,
                       .pageSizes = cfg.gpu.pageSizes};
    run.paging = runPaging(trace, *run.policy, framesFor(trace, cfg.oversub),
                           *run.stats, opts);
    return run;
}

InspectableRun
runTimingInspect(const Trace &trace, PolicyKind kind, const RunConfig &cfg,
                 const TraceAttachments &attach)
{
    InspectableRun run;
    run.stats = std::make_unique<StatRegistry>();
    run.policy = makePolicy(kind, trace, *run.stats, cfg.hpe, cfg.seed);
    GpuSystem gpu(cfg.gpu, trace, *run.policy, framesFor(trace, cfg.oversub),
                  *run.stats, run.hpe());
    if (attach.sink != nullptr)
        gpu.setTraceSink(attach.sink);
    if (attach.intervals != nullptr) {
        attachIntervalProbes(*attach.intervals, *run.stats, gpu.uvm(),
                             *run.policy, "driver.uvm");
        gpu.setIntervalRecorder(attach.intervals);
    }
    run.timing = gpu.run();
    return run;
}

PagingResult
runFunctional(const Trace &trace, PolicyKind kind, const RunConfig &cfg)
{
    return runFunctionalInspect(trace, kind, cfg).paging;
}

TimingResult
runTiming(const Trace &trace, PolicyKind kind, const RunConfig &cfg)
{
    return runTimingInspect(trace, kind, cfg).timing;
}

} // namespace hpe
