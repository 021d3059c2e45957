#include "stats/counters.h"

namespace homa {

WastedBandwidthProbe::WastedBandwidthProbe(Network& net, Duration interval)
    : net_(net), interval_(interval) {}

void WastedBandwidthProbe::start(Time from, Time until) {
    until_ = until;
    net_.loop().at(from, [this] { sampleOnce(); });
}

void WastedBandwidthProbe::sampleOnce() {
    for (HostId h = 0; h < net_.hostCount(); h++) {
        samples_++;
        if (net_.downlink(h).idle() && net_.host(h).transport().hasWithheldWork()) {
            wasted_++;
        }
    }
    if (net_.loop().now() + interval_ <= until_) {
        net_.loop().after(interval_, [this] { sampleOnce(); });
    }
}

QueueOccupancy summarizeQueues(const std::vector<const EgressPort*>& ports,
                               Time elapsed) {
    QueueOccupancy out;
    if (ports.empty() || elapsed <= 0) return out;
    double meanSum = 0;
    for (const auto* p : ports) {
        meanSum += p->stats().meanQueueBytes(elapsed);
        out.maxBytes = std::max(out.maxBytes, p->stats().maxQueueBytes);
    }
    out.meanBytes = meanSum / static_cast<double>(ports.size());
    return out;
}

}  // namespace homa
