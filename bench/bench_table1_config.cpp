/**
 * @file
 * Table I — configuration of the simulated system.  Prints the constants
 * and defaults the simulator actually uses, so drift between
 * documentation and code is impossible.
 */

#include "bench_common.hpp"
#include "gpu/gpu_system.hpp"

int
main(int argc, char **argv)
{
    using namespace hpe;
    const auto opt = bench::parseOptions(argc, argv);
    bench::banner("Table I: configuration of the simulated system", opt);

    using G = GpuConfig;
    TextTable t({"component", "configuration"});
    t.addRow({"GPU arch", "NVIDIA GTX-480 Fermi-like"});
    t.addRow({"GPU cores", std::to_string(G::kNumSms) + " SMs, "
                               + TextTable::num(kCoreClockGHz, 1) + " GHz, "
                               + std::to_string(G::kWarpsPerSm)
                               + " memory-active warps/SM"});
    t.addRow({"Private L1 cache", std::to_string(G::kL1d.sizeBytes / 1024)
                                      + " KB, " + std::to_string(G::kL1d.ways)
                                      + "-way, LRU"});
    t.addRow({"Private L1 TLB", std::to_string(G::kL1Tlb.entries)
                                    + "-entry per SM, "
                                    + std::to_string(G::kL1Tlb.latency)
                                    + "-cycle, LRU, hit under miss"});
    t.addRow({"Shared L2 cache", std::to_string(G::kL2d.sizeBytes / 1024)
                                     + " KB total, "
                                     + std::to_string(G::kL2d.ways)
                                     + "-way, LRU"});
    t.addRow({"Shared L2 TLB", std::to_string(G::kL2Tlb.entries) + "-entry, "
                                   + std::to_string(G::kL2Tlb.ways)
                                   + "-associative, LRU, "
                                   + std::to_string(G::kL2Tlb.latency)
                                   + "-cycle, "
                                   + std::to_string(G::kL2Tlb.ports)
                                   + " ports"});
    t.addRow({"Page walk", std::to_string(GpuConfig{}.walkLatency)
                               + " cycles, single-level page table"});
    t.addRow({"DRAM", "GDDR5, " + std::to_string(G::kDram.channels)
                          + "-channel, FR-FCFS scheduler"});
    t.addRow({"CPU-GPU interconnect",
              TextTable::num(PcieLink::kBandwidthGBs, 0) + " GB/s, "
                  + TextTable::num(cyclesToMicros(DriverConfig::kFaultServiceCycles), 0)
                  + " us page fault service time"});
    t.addRow({"Page size", std::to_string(kPageBytes / 1024) + " KB"});
    t.print();
    return 0;
}
