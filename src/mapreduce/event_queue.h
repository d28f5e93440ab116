#ifndef DCBENCH_MAPREDUCE_EVENT_QUEUE_H_
#define DCBENCH_MAPREDUCE_EVENT_QUEUE_H_

/**
 * @file
 * The discrete-event queue both cluster engines run on: a binary heap
 * plus N sorted append lanes.
 *
 * Most pushes of a cluster simulation come in chains whose times never
 * decrease (heartbeats, launches at a barrier, an attempt's finish and
 * deadline). A heap sifts each of them; a lane takes them for one
 * append. The caller names the lane a push should try, and the queue
 * appends there only when that keeps the lane sorted, so routing is a
 * performance choice and never changes the order events come out in.
 *
 * The order is strict (time, seq), and the queue stamps `seq` from its
 * own counter, so every push carries the newest, largest seq. A lane
 * whose times never decrease is therefore sorted by (time, seq), its
 * head is its minimum, and the least of the heap's root and the lane
 * heads is the event one heap holding everything would pop.
 */

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.h"

namespace dcb::mapreduce {

/**
 * Pending events in strict (time, seq) order. `Event` needs a `double
 * time` and a `std::uint64_t seq`; push() overwrites `seq`.
 */
template <typename Event, std::size_t N>
class LanedEventQueue
{
  public:
    /** The lane argument that sends a push straight to the heap. */
    static constexpr std::size_t kHeap = N;

    /** Queues `ev` with the next seq: appended to `lane` when its time
        is no earlier than the lane's tail, else onto the heap. */
    void push(Event ev, std::size_t lane = kHeap)
    {
        ev.seq = next_seq_++;
        if (lane < N && lanes_[lane].takes(ev.time))
            lanes_[lane].push(ev);
        else
            push_heap(ev);
    }

    bool empty() const
    {
        if (!heap_.empty())
            return false;
        for (const Lane& lane : lanes_)
            if (!lane.empty())
                return false;
        return true;
    }

    /** The least pending event, or null when none is pending. */
    const Event* top() const
    {
        const std::size_t src = least();
        return src == kNone ? nullptr : &head(src);
    }

    /** Removes and returns the least pending event. */
    Event pop()
    {
        const std::size_t src = least();
        DCB_EXPECTS_MSG(src != kNone, "pop from an empty event queue");
        return take(src);
    }

    /** Pops the least pending event into `out` if its time is before
        `end`; false, leaving the queue as it was, otherwise. */
    bool pop_before(double end, Event& out)
    {
        const std::size_t src = least();
        if (src == kNone || head(src).time >= end)
            return false;
        out = take(src);
        return true;
    }

  private:
    static constexpr std::size_t kNone = N + 1;

    static bool before(const Event& a, const Event& b)
    {
        if (a.time != b.time)
            return a.time < b.time;
        return a.seq < b.seq;
    }

    /** Min-heap order on (time, seq). */
    struct After
    {
        bool operator()(const Event& a, const Event& b) const
        {
            return before(b, a);
        }
    };

    /**
     * An append-only run of events in (time, seq) order, consumed from
     * the front. A drained lane resets, and the consumed prefix is
     * erased once it is at least kCompactMin events and half the
     * storage, so an event is moved at most once on average and the
     * storage stays within twice the pending events plus kCompactMin.
     */
    class Lane
    {
      public:
        bool empty() const { return head_ == items_.size(); }
        const Event& front() const { return items_[head_]; }
        bool takes(double time) const
        {
            return empty() || time >= items_.back().time;
        }
        void push(const Event& ev) { items_.push_back(ev); }
        void pop()
        {
            if (++head_ == items_.size()) {
                items_.clear();
                head_ = 0;
            } else if (head_ >= kCompactMin && 2 * head_ >= items_.size()) {
                items_.erase(items_.begin(),
                             items_.begin() +
                                 static_cast<std::ptrdiff_t>(head_));
                head_ = 0;
            }
        }

      private:
        static constexpr std::size_t kCompactMin = 256;
        std::vector<Event> items_;
        std::size_t head_ = 0;
    };

    /** Apart from push() so that push() stays small enough for the
        compiler to inline at every call site. */
    void push_heap(const Event& ev)
    {
        heap_.push_back(ev);
        std::push_heap(heap_.begin(), heap_.end(), After{});
    }

    /** The source holding the least event: a lane index, kHeap, or
        kNone when nothing is pending. */
    std::size_t least() const
    {
        std::size_t src = kNone;
        for (std::size_t i = 0; i < N; ++i)
            if (!lanes_[i].empty() &&
                (src == kNone ||
                 before(lanes_[i].front(), lanes_[src].front())))
                src = i;
        if (!heap_.empty() &&
            (src == kNone || before(heap_.front(), lanes_[src].front())))
            src = kHeap;
        return src;
    }

    const Event& head(std::size_t src) const
    {
        return src == kHeap ? heap_.front() : lanes_[src].front();
    }

    Event take(std::size_t src)
    {
        if (src != kHeap) {
            const Event ev = lanes_[src].front();
            lanes_[src].pop();
            return ev;
        }
        std::pop_heap(heap_.begin(), heap_.end(), After{});
        const Event ev = heap_.back();
        heap_.pop_back();
        return ev;
    }

    std::vector<Event> heap_;  ///< binary heap under After
    std::array<Lane, N> lanes_;
    std::uint64_t next_seq_ = 0;
};

}  // namespace dcb::mapreduce

#endif  // DCBENCH_MAPREDUCE_EVENT_QUEUE_H_
