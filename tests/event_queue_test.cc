/** @file Property test of the laned event queue both cluster engines
    run on: for any push mix, every pop is the one a plain (time, seq)
    heap of the same pushes makes. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "mapreduce/event_queue.h"
#include "util/rng.h"

namespace dcb::mapreduce {
namespace {

struct TestEvent
{
    double time = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t id = 0;
};

/**
 * Feeds the same pushes to a LanedEventQueue and to a std::priority_queue
 * on (time, seq), where seq is the push count the queue must stamp, and
 * checks every pop against the reference.
 */
template <std::size_t N>
class Replay
{
  public:
    using Queue = LanedEventQueue<TestEvent, N>;
    using Key = std::pair<double, std::uint64_t>;

    void push(double time, std::size_t lane)
    {
        TestEvent ev;
        ev.time = time;
        ev.seq = 0xDEADull;  // must be overwritten by the queue
        ev.id = static_cast<std::uint32_t>(pushes_);
        queue_.push(ev, lane);
        ref_.emplace(time, pushes_++);
    }

    void pop()
    {
        ASSERT_FALSE(ref_.empty());
        const TestEvent* top = queue_.top();
        ASSERT_NE(top, nullptr);
        ASSERT_EQ(Key(top->time, top->seq), ref_.top())
            << "pop " << pops_ << " (top)";
        const TestEvent ev = queue_.pop();
        check_popped(ev);
    }

    /** pop_before(end): pops exactly when the reference's least event
        is before `end`. */
    void pop_before(double end)
    {
        TestEvent ev;
        const bool due = !ref_.empty() && ref_.top().first < end;
        ASSERT_EQ(queue_.pop_before(end, ev), due) << "pop " << pops_;
        if (due)
            check_popped(ev);
    }

    void drain()
    {
        while (!ref_.empty()) {
            ASSERT_FALSE(queue_.empty());
            pop();
            if (::testing::Test::HasFatalFailure())
                return;
        }
        ASSERT_TRUE(queue_.empty());
        ASSERT_EQ(queue_.top(), nullptr);
        TestEvent ev;
        ASSERT_FALSE(queue_.pop_before(1e300, ev));
    }

    bool empty() const { return ref_.empty(); }
    double now() const { return now_; }
    std::uint64_t pops() const { return pops_; }

  private:
    void check_popped(const TestEvent& ev)
    {
        ASSERT_EQ(Key(ev.time, ev.seq), ref_.top()) << "pop " << pops_;
        ASSERT_EQ(ev.id, ev.seq);
        ASSERT_GE(ev.time, now_);
        ref_.pop();
        now_ = ev.time;
        ++pops_;
    }

    Queue queue_;
    std::priority_queue<Key, std::vector<Key>, std::greater<>> ref_;
    std::uint64_t pushes_ = 0;
    std::uint64_t pops_ = 0;
    double now_ = 0.0;
};

/**
 * A seeded mix of in-order lane pushes, lane pushes below the lane's
 * tail (which must fall to the heap), heap pushes, equal-time ties
 * pushed across every lane and the heap in shuffled order, pops and
 * pop_before calls; rounds drain to empty and refill, and each ends
 * with long lane chains whose consumed prefix passes the 256-event
 * compaction point while events are still pending behind it.
 */
template <std::size_t N>
void
check_any_push_mix(std::uint64_t seed)
{
    Replay<N> r;
    util::Rng rng(seed);
    constexpr std::size_t kHeap = Replay<N>::Queue::kHeap;
    // Per lane: no earlier than the lane's tail, so a push at or after
    // it is taken by the lane.
    std::vector<double> cursor(N, 0.0);
    const auto in_order = [&](std::size_t lane, double step) {
        cursor[lane] = std::max(cursor[lane], r.now()) + step;
        r.push(cursor[lane], lane);
    };
    const auto quantum = [&] {
        // Coarse steps make equal times common.
        return 0.25 * static_cast<double>(rng.next_below(4));
    };

    for (int round = 0; round < 6; ++round) {
        for (int op = 0; op < 3000; ++op) {
            const double u = rng.next_double();
            const auto lane = static_cast<std::size_t>(rng.next_below(N));
            if (u < 0.30) {
                in_order(lane, quantum());
            } else if (u < 0.42) {
                // At or below the lane's tail: the heap takes it unless
                // the lane has drained since.
                const double tail = std::max(cursor[lane], r.now());
                const double t =
                    r.now() + (tail - r.now()) * rng.next_double();
                r.push(t, lane);
            } else if (u < 0.52) {
                r.push(r.now() + 4.0 * rng.next_double(), kHeap);
            } else if (u < 0.58) {
                // One time on every lane and the heap, in shuffled push
                // order, so seq and lane index disagree on ties.
                double t = r.now() + quantum();
                for (const double c : cursor)
                    t = std::max(t, c);
                std::vector<std::size_t> order(N + 1);
                for (std::size_t i = 0; i <= N; ++i)
                    order[i] = i;
                for (std::size_t i = N; i > 0; --i)
                    std::swap(order[i],
                              order[static_cast<std::size_t>(
                                  rng.next_below(i + 1))]);
                for (const std::size_t dest : order) {
                    if (dest < N)
                        cursor[dest] = t;
                    r.push(t, dest);
                }
            } else if (u < 0.90) {
                if (!r.empty())
                    r.pop();
            } else {
                r.pop_before(r.now() + quantum());
            }
            if (::testing::Test::HasFatalFailure())
                return;
        }
        r.drain();
        if (::testing::Test::HasFatalFailure())
            return;

        // Long chains: each lane holds up to ~600 pending events while
        // more than 256 of its front are consumed, and pops interleave
        // across the lanes and the heap.
        for (int i = 0; i < 600; ++i)
            for (std::size_t lane = 0; lane < N; ++lane)
                in_order(lane, 0.01 * static_cast<double>(lane + 1));
        for (int i = 0; i < 2000; ++i) {
            const auto lane = static_cast<std::size_t>(rng.next_below(N));
            in_order(lane, rng.next_below(3) == 0 ? 0.0 : 0.01);
            if (i % 7 == 0)
                r.push(r.now() + rng.next_double(), kHeap);
            r.pop();
            if (rng.next_below(2) == 0)
                r.pop();
            if (::testing::Test::HasFatalFailure())
                return;
        }
        r.drain();
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(r.pops(), 30000u);
}

TEST(LanedEventQueue, TwoLanesDeliverHeapOrderForAnyPushMix)
{
    for (const std::uint64_t seed : {1ull, 2ull, 3ull})
        check_any_push_mix<2>(seed);
}

TEST(LanedEventQueue, ThreeLanesDeliverHeapOrderForAnyPushMix)
{
    for (const std::uint64_t seed : {1ull, 2ull, 3ull})
        check_any_push_mix<3>(seed);
}

TEST(LanedEventQueue, EmptyQueueHasNothingToPop)
{
    LanedEventQueue<TestEvent, 2> q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.top(), nullptr);
    TestEvent ev;
    EXPECT_FALSE(q.pop_before(1.0, ev));
    q.push(TestEvent{2.0, 0, 7}, 0);
    EXPECT_FALSE(q.pop_before(2.0, ev));  // end is exclusive
    ASSERT_TRUE(q.pop_before(2.5, ev));
    EXPECT_EQ(ev.id, 7u);
    EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace dcb::mapreduce
