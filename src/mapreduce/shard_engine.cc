#include "mapreduce/shard_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <exception>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "mapreduce/event_queue.h"
#include "util/assert.h"
#include "util/thread_pool.h"

namespace dcb::mapreduce {

namespace {

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start;
    return d.count();
}

/** Short spin, then yield: barriers are sub-microsecond when cores are
    available and still make progress on an oversubscribed host. */
template <typename Pred>
void
spin_until(const Pred& ready)
{
    for (int i = 0; i < 2048; ++i)
        if (ready())
            return;
    while (!ready())
        std::this_thread::yield();
}

ShardEvent
make_event(double time, std::uint32_t kind, std::uint32_t a,
           std::uint32_t b, std::uint32_t c, std::uint32_t d, double x)
{
    ShardEvent ev;
    ev.time = time;
    ev.kind = kind;
    ev.a = a;
    ev.b = b;
    ev.c = c;
    ev.d = d;
    ev.x = x;
    return ev;
}

}  // namespace

/**
 * One shard: queue, outbox, RNG stream and counters, all private.
 * Cache-line aligned: workers write neighbouring shards concurrently.
 *
 * Handler pushes no later than one lookahead ahead (heartbeat chains)
 * try the local lane, coordinator pushes (launches at the barrier) the
 * barrier lane; everything else goes to the queue's heap.
 */
struct alignas(64) EngineShard
{
    using Queue = LanedEventQueue<ShardEvent, 2>;
    static constexpr std::size_t kLocalLane = 0;
    static constexpr std::size_t kBarrierLane = 1;

    std::uint32_t index = 0;
    double lookahead = 1.0;
    Queue queue;
    std::vector<ShardMessage> outbox;
    util::Rng rng{0};
    std::uint64_t msg_seq = 0;
    ShardStats stats;
    /** Simulated time of the last event of the latest epoch in which
        this shard ran any (read by the epoch observer). */
    double last_event_s = -1.0;

    /** Time of the next pending event, +inf when none. */
    double next_time() const
    {
        const ShardEvent* ev = queue.top();
        return ev != nullptr ? ev->time
                             : std::numeric_limits<double>::infinity();
    }
};

struct ShardedEngine::Impl
{
    std::vector<EngineShard> shards;
    bool ran = false;
};

void
ShardApi::push(double time, std::uint32_t kind, std::uint32_t a,
               std::uint32_t b, std::uint32_t c, std::uint32_t d,
               double x)
{
    auto* shard = static_cast<EngineShard*>(shard_);
    DCB_EXPECTS_MSG(time >= now_,
                    "shard event scheduled into the past");
    // A far event would block the lane to the near ones behind it.
    shard->queue.push(make_event(time, kind, a, b, c, d, x),
                      time <= now_ + shard->lookahead
                          ? EngineShard::kLocalLane
                          : EngineShard::Queue::kHeap);
}

void
ShardApi::send(double time, std::uint32_t kind, std::uint32_t a,
               std::uint32_t b, std::uint32_t c, std::uint32_t d,
               double x, double y)
{
    auto* shard = static_cast<EngineShard*>(shard_);
    ShardMessage msg;
    msg.time = time;
    msg.from_shard = shard->index;
    msg.seq = shard->msg_seq++;
    msg.kind = kind;
    msg.a = a;
    msg.b = b;
    msg.c = c;
    msg.d = d;
    msg.x = x;
    msg.y = y;
    shard->outbox.push_back(msg);
}

util::Rng&
ShardApi::rng()
{
    return static_cast<EngineShard*>(shard_)->rng;
}

void
Coordinator::push(std::uint32_t shard, double time, std::uint32_t kind,
                  std::uint32_t a, std::uint32_t b, std::uint32_t c,
                  std::uint32_t d, double x)
{
    auto* impl = static_cast<ShardedEngine::Impl*>(engine_);
    DCB_EXPECTS(shard < impl->shards.size());
    DCB_EXPECTS_MSG(time >= barrier_,
                    "coordinator event scheduled before the barrier");
    impl->shards[shard].queue.push(make_event(time, kind, a, b, c, d, x),
                                   EngineShard::kBarrierLane);
}

ShardedEngine::ShardedEngine(std::uint32_t shards, double lookahead_s,
                             std::uint64_t rng_seed)
    : impl_(new Impl), lookahead_(lookahead_s)
{
    DCB_EXPECTS(shards >= 1);
    DCB_EXPECTS_MSG(lookahead_s > 0.0,
                    "conservative lookahead must be positive");
    impl_->shards.resize(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
        impl_->shards[s].index = s;
        impl_->shards[s].lookahead = lookahead_s;
        impl_->shards[s].rng = util::Rng::stream(rng_seed, s);
    }
}

ShardedEngine::~ShardedEngine()
{
    delete impl_;
}

std::uint32_t
ShardedEngine::shard_count() const
{
    return static_cast<std::uint32_t>(impl_->shards.size());
}

void
ShardedEngine::seed_event(std::uint32_t shard, double time,
                          std::uint32_t kind, std::uint32_t a,
                          std::uint32_t b, std::uint32_t c,
                          std::uint32_t d, double x)
{
    DCB_EXPECTS(shard < impl_->shards.size());
    DCB_EXPECTS(!impl_->ran);
    impl_->shards[shard].queue.push(make_event(time, kind, a, b, c, d, x));
}

EngineResult
ShardedEngine::run(const EventFn& on_event, const BarrierFn& on_barrier,
                   unsigned threads)
{
    DCB_EXPECTS_MSG(!impl_->ran, "ShardedEngine::run is one-shot");
    impl_->ran = true;
    const auto shard_total =
        static_cast<std::uint32_t>(impl_->shards.size());
    const unsigned workers =
        std::min<unsigned>(std::max(threads, 1u), shard_total);

    EngineResult result;
    result.shards.resize(shard_total);

    // Drain one shard through the epoch; private state only, so any
    // worker may claim any shard in any order with the same outcome.
    // `worker` identifies the claiming lane (0 = coordinator) purely
    // for the host-side steal tally.
    const auto process_shard = [&](unsigned worker, std::uint32_t s,
                                   double epoch_end) {
        EngineShard& sh = impl_->shards[s];
        if (sh.next_time() >= epoch_end)
            return;
        if (workers > 1 && worker != s % workers)
            ++sh.stats.steals;
        const auto t0 = std::chrono::steady_clock::now();
        ShardApi api(&sh);
        api.epoch_end_ = epoch_end;
        for (ShardEvent ev; sh.queue.pop_before(epoch_end, ev);) {
            api.now_ = ev.time;
            on_event(s, ev, api);
            ++sh.stats.events_processed;
        }
        sh.last_event_s = api.now_;
        sh.stats.busy_seconds += seconds_since(t0);
    };

    // Host-side idle tally per lane; each lane writes only its own
    // entry, and the pool's join orders those writes before the read.
    std::vector<double> idle(workers, 0.0);

    // Generation barrier shared with the parked pool workers. The
    // coordinator writes epoch_end then bumps `generation` (release);
    // workers observe the bump (acquire), claim shards through
    // `next_shard`, and check in on `workers_done`.
    std::atomic<std::uint64_t> generation{0};
    std::atomic<std::uint32_t> next_shard{0};
    std::atomic<std::uint32_t> workers_done{0};
    std::atomic<bool> stopping{false};
    std::atomic<bool> worker_failed{false};
    std::exception_ptr worker_error;
    double epoch_end_shared = 0.0;

    const unsigned extra_workers = workers - 1;
    std::unique_ptr<util::ThreadPool> pool;
    if (extra_workers > 0) {
        pool = std::make_unique<util::ThreadPool>(extra_workers);
        for (unsigned w = 0; w < extra_workers; ++w) {
            pool->submit([&, w] {
                std::uint64_t seen = 0;
                auto idle_start = std::chrono::steady_clock::now();
                for (;;) {
                    spin_until([&] {
                        return stopping.load(std::memory_order_acquire) ||
                               generation.load(
                                   std::memory_order_acquire) != seen;
                    });
                    idle[w + 1] += seconds_since(idle_start);
                    if (stopping.load(std::memory_order_acquire))
                        return;
                    seen = generation.load(std::memory_order_acquire);
                    const double end = epoch_end_shared;
                    try {
                        for (std::uint32_t s;
                             (s = next_shard.fetch_add(
                                  1, std::memory_order_relaxed)) <
                             shard_total;)
                            process_shard(w + 1, s, end);
                    } catch (...) {
                        bool expected = false;
                        if (worker_failed.compare_exchange_strong(
                                expected, true))
                            worker_error = std::current_exception();
                        while (next_shard.fetch_add(
                                   1, std::memory_order_relaxed) <
                               shard_total) {
                        }
                    }
                    idle_start = std::chrono::steady_clock::now();
                    workers_done.fetch_add(1,
                                           std::memory_order_acq_rel);
                }
            });
        }
    }

    // The coordinating thread's serial stretch runs from the end of one
    // parallel region to the start of the next: two clock reads per
    // barrier, the first of which also closes lane 0's idle wait.
    auto serial_start = std::chrono::steady_clock::now();
    const auto run_epoch = [&](double epoch_end) {
        result.coordinator_seconds += seconds_since(serial_start);
        if (extra_workers == 0) {
            for (std::uint32_t s = 0; s < shard_total; ++s)
                process_shard(0, s, epoch_end);
            serial_start = std::chrono::steady_clock::now();
            return;
        }
        epoch_end_shared = epoch_end;
        workers_done.store(0, std::memory_order_relaxed);
        next_shard.store(0, std::memory_order_relaxed);
        generation.fetch_add(1, std::memory_order_release);
        // The coordinating thread is a worker too.
        for (std::uint32_t s; (s = next_shard.fetch_add(
                                   1, std::memory_order_relaxed)) <
                              shard_total;)
            process_shard(0, s, epoch_end);
        const auto wait_start = std::chrono::steady_clock::now();
        spin_until([&] {
            return workers_done.load(std::memory_order_acquire) ==
                   extra_workers;
        });
        serial_start = std::chrono::steady_clock::now();
        idle[0] += std::chrono::duration<double>(serial_start - wait_start)
                       .count();
    };
    const auto stop_workers = [&] {
        stopping.store(true, std::memory_order_release);
        if (pool != nullptr)
            pool->wait_idle();
    };

    Coordinator coordinator(impl_);
    std::vector<ShardMessage> inbox;
    bool keep_going = true;
    try {
        // Initial scheduling pass before any event exists.
        coordinator.barrier_ = 0.0;
        keep_going = on_barrier(0.0, inbox, coordinator);
        double prev_barrier = 0.0;
        // Epoch-observer scratch, kept off the shards' cache lines:
        // events_processed as of the previous barrier, per shard.
        std::vector<std::uint64_t> marks(shard_total, 0);
        std::vector<EpochShardView> views(shard_total);
        while (keep_going) {
            double t_min = std::numeric_limits<double>::infinity();
            for (EngineShard& sh : impl_->shards)
                t_min = std::min(t_min, sh.next_time());
            if (!std::isfinite(t_min))
                break;  // drained, and the coordinator had its say
            const double epoch_end =
                (std::floor(t_min / lookahead_) + 1.0) * lookahead_;
            run_epoch(epoch_end);
            if (worker_failed.load(std::memory_order_acquire))
                std::rethrow_exception(worker_error);
            ++result.epochs;
            result.end_time_s = epoch_end;
            if (epoch_observer_ != nullptr) {
                for (std::uint32_t s = 0; s < shard_total; ++s) {
                    const EngineShard& sh = impl_->shards[s];
                    const std::uint64_t done = sh.stats.events_processed;
                    views[s].events = done - marks[s];
                    views[s].last_event_s =
                        views[s].events > 0 ? sh.last_event_s : -1.0;
                    marks[s] = done;
                }
                epoch_observer_(result.epochs - 1, prev_barrier,
                                epoch_end, views);
            }
            prev_barrier = epoch_end;

            inbox.clear();
            for (EngineShard& sh : impl_->shards) {
                sh.stats.messages_sent += sh.outbox.size();
                inbox.insert(inbox.end(), sh.outbox.begin(),
                             sh.outbox.end());
                sh.outbox.clear();
            }
            std::sort(inbox.begin(), inbox.end(),
                      [](const ShardMessage& a, const ShardMessage& b) {
                          if (a.time != b.time)
                              return a.time < b.time;
                          if (a.from_shard != b.from_shard)
                              return a.from_shard < b.from_shard;
                          return a.seq < b.seq;
                      });

            std::uint64_t events = 0;
            for (const EngineShard& sh : impl_->shards)
                events += sh.stats.events_processed;
            if (events > event_budget_) {
                result.budget_exceeded = true;
                break;
            }
            coordinator.barrier_ = epoch_end;
            keep_going = on_barrier(epoch_end, inbox, coordinator);
        }
    } catch (...) {
        stop_workers();
        throw;
    }
    result.coordinator_seconds += seconds_since(serial_start);
    stop_workers();

    result.worker_idle_seconds = std::move(idle);
    result.events = 0;
    for (std::uint32_t s = 0; s < shard_total; ++s) {
        result.shards[s] = impl_->shards[s].stats;
        result.events += result.shards[s].events_processed;
    }
    return result;
}

}  // namespace dcb::mapreduce
