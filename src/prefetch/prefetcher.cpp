#include "prefetch/prefetcher.hpp"

#include "common/log.hpp"
#include "prefetch/density_prefetcher.hpp"
#include "prefetch/sequential_prefetcher.hpp"
#include "prefetch/stride_prefetcher.hpp"

namespace hpe::prefetch {

const char *
prefetchKindName(PrefetchKind kind)
{
    switch (kind) {
      case PrefetchKind::None:       return "none";
      case PrefetchKind::Sequential: return "sequential";
      case PrefetchKind::Stride:     return "stride";
      case PrefetchKind::Density:    return "density";
    }
    return "?";
}

std::optional<PrefetchKind>
prefetchKindByName(std::string_view name)
{
    for (PrefetchKind kind : allPrefetchKinds())
        if (name == prefetchKindName(kind))
            return kind;
    return std::nullopt;
}

const std::vector<PrefetchKind> &
allPrefetchKinds()
{
    static const std::vector<PrefetchKind> kinds = {
        PrefetchKind::None, PrefetchKind::Sequential, PrefetchKind::Stride,
        PrefetchKind::Density};
    return kinds;
}

std::unique_ptr<Prefetcher>
makePrefetcher(const PrefetchConfig &cfg)
{
    if (cfg.kind == PrefetchKind::None)
        return nullptr;
    switch (cfg.kind) {
      case PrefetchKind::Sequential:
        return std::make_unique<SequentialPrefetcher>(cfg);
      case PrefetchKind::Stride:
        return std::make_unique<StridePrefetcher>(cfg);
      case PrefetchKind::Density:
        return std::make_unique<DensityPrefetcher>(cfg);
      case PrefetchKind::None:
        break;
    }
    panic("unhandled prefetch kind {}", static_cast<int>(cfg.kind));
}

} // namespace hpe::prefetch
