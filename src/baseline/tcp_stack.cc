/**
 * @file
 * TCP deep-stack baseline implementation.
 */

#include "baseline/tcp_stack.hh"

namespace sonuma::baseline {

TcpPair::TcpPair(sim::EventQueue &eq, sim::StatRegistry &stats,
                 const TcpParams &params)
    : eq_(eq), params_(params),
      packets_(stats, "tcp.packets", "MTU packets processed")
{
    for (int h = 0; h < 2; ++h) {
        txCore_[h] = std::make_unique<sim::ServiceResource>(
            eq, "tcp.tx" + std::to_string(h));
        rxCore_[h] = std::make_unique<sim::ServiceResource>(
            eq, "tcp.rx" + std::to_string(h));
        link_[h] = std::make_unique<sim::BandwidthPipe>(
            eq, "tcp.link" + std::to_string(h), params.linkBandwidth,
            params.linkLat);
    }
}

sim::Task
TcpPair::transfer(int dir, std::uint32_t len)
{
    const std::uint32_t packetCount =
        std::max<std::uint32_t>(1, (len + params_.mtu - 1) / params_.mtu);

    // Per-message syscall/wakeup cost, then a pipelined per-packet path:
    // tx stack -> wire -> rx stack. After the last packet, the receiver
    // pays the per-message wakeup + copy-out before the app sees data.
    co_await txCore_[dir]->use(params_.perMessageTx);

    // The transfer's state lives in this frame, so every packet callback
    // captures only {state, bytes} and fits a sim::Callback.
    struct State
    {
        TcpPair *pair;
        int src;
        int dst;
        std::uint32_t remaining;
        bool finished;
        sim::Condition lastDone;
    } st{this, dir, 1 - dir, packetCount, false, sim::Condition(eq_)};
    for (std::uint32_t p = 0; p < packetCount; ++p) {
        const std::uint32_t bytes =
            std::min<std::uint32_t>(params_.mtu, len - p * params_.mtu);
        packets_.inc();
        txCore_[st.src]->submit(params_.perPacketTx, [s = &st, bytes] {
            s->pair->link_[s->src]->send(
                bytes + 66 /* eth+ip+tcp headers */, [s] {
                    TcpPair &tcp = *s->pair;
                    tcp.rxCore_[s->dst]->submit(
                        tcp.params_.perPacketRx, [s] {
                            if (--s->remaining > 0)
                                return;
                            TcpPair &tcp = *s->pair;
                            tcp.rxCore_[s->dst]->submit(
                                tcp.params_.perMessageRx, [s] {
                                    s->finished = true;
                                    s->lastDone.notifyAll();
                                });
                        });
                });
        });
    }
    while (!st.finished)
        co_await st.lastDone.wait();
}

sim::Task
TcpPair::send(std::uint32_t len)
{
    co_await transfer(0, len);
}

sim::Task
TcpPair::pingPong(std::uint32_t len)
{
    co_await transfer(0, len);
    co_await transfer(1, len);
}

sim::Task
TcpPair::stream(std::uint32_t len, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i)
        co_await transfer(0, len);
}

} // namespace sonuma::baseline
