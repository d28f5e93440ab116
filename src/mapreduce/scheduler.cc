#include "mapreduce/scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "fault/topology.h"
#include "mapreduce/event_queue.h"
#include "util/assert.h"
#include "util/rng.h"

namespace dcb::mapreduce {

namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
constexpr double kMiB = 1024.0 * 1024.0;

/** One slave's scheduler-visible state, shared across phases. */
struct Node
{
    bool alive = true;
    bool blacklisted = false;
    /** Behind a network cut: unschedulable, completions unreportable. */
    bool partitioned = false;
    std::uint32_t free_slots = 0;
    std::uint32_t failures = 0;  ///< failed attempts hosted, for blacklist
    double speed = 1.0;          ///< task-time multiplier (slow nodes > 1)
};

/** Cluster-wide mutable state threaded through map and reduce phases. */
struct ClusterState
{
    std::vector<Node> nodes;
    fault::Topology topology;
    double crash_time = -1.0;  ///< scheduled node crash, task timeline
    std::uint32_t crash_node = 0;
    bool crash_fired = false;

    // Correlated one-shot faults, shared across phases and iterations.
    double rack_crash_time = -1.0;
    std::uint32_t crash_rack = 0;
    bool rack_crash_fired = false;

    double partition_time = -1.0;
    double partition_heal_time = -1.0;
    std::uint32_t partition_rack = 0;
    bool partition_fired = false;
    bool partition_healed = false;

    double master_crash_time = -1.0;
    bool master_crash_fired = false;

    /** Cascade victims waiting to crash (survive phase boundaries). */
    struct PendingCrash
    {
        double time = 0.0;
        std::uint32_t node = 0;
        bool fired = false;
    };
    std::vector<PendingCrash> pending_crashes;
    /** Stable trigger ids for cascade decisions (one per recovery
        window, in the order the windows close). */
    std::uint64_t recovery_windows = 0;

    std::uint32_t
    alive_slots(std::uint32_t per_node) const
    {
        std::uint32_t total = 0;
        for (const Node& node : nodes)
            if (node.alive && !node.blacklisted && !node.partitioned)
                total += per_node;
        return total;
    }
};

/**
 * Heal the active partition: the rack rejoins and its trackers are
 * forgiven -- failures accumulated while the rack was unreachable say
 * nothing about the machines themselves, so blacklists are lifted and
 * failure counts reset (partition-aware blacklisting).
 */
void
heal_partition(ClusterState& state, JobRun& stats,
               fault::FaultInjector* injector, double now)
{
    if (!state.partition_fired || state.partition_healed)
        return;
    state.partition_healed = true;
    const std::uint32_t rack = state.partition_rack;
    for (std::uint32_t i = state.topology.rack_begin(rack);
         i < state.topology.rack_end(rack); ++i) {
        Node& node = state.nodes[i];
        node.partitioned = false;
        if (!node.alive)
            continue;
        if (node.blacklisted) {
            node.blacklisted = false;
            ++stats.nodes_unblacklisted;
        }
        node.failures = 0;
    }
    ++stats.partition_heals;
    if (injector != nullptr)
        injector->record(
            {fault::FaultKind::kPartitionHeal, now, rack, 0, 0});
}

/** One task attempt in flight (or finished). */
struct Attempt
{
    std::uint32_t task = 0;
    std::uint32_t node = 0;
    double start = 0.0;
    double finish = 0.0;  ///< completion -- or crash -- time
    bool crashes = false;
    bool live = false;
    bool speculative = false;
};

struct TaskState
{
    bool done = false;
    std::uint32_t failed = 0;   ///< failed attempts, counts to max_attempts
    std::uint32_t started = 0;  ///< attempts launched, incl. speculative
    std::vector<std::uint32_t> live_attempts;
    std::uint32_t completion_node = 0;
    double completion_time = 0.0;  ///< for checkpoint restore decisions
};

enum class EventKind : std::uint8_t {
    kFinish,         ///< attempt completes
    kCrash,          ///< attempt dies (injected task crash)
    kReady,          ///< task leaves retry backoff, may be launched
    kNodeCrash,      ///< scheduled whole-node failure
    kSpecCheck,      ///< is this attempt a straggler yet?
    kWatchdog,       ///< per-attempt deadline check
    kRackCrash,      ///< scheduled rack power loss
    kPartition,      ///< partition epoch begins
    kPartitionHeal,  ///< partition epoch ends, the rack rejoins
    kMasterCrash,    ///< the JobTracker dies
    kFailover,       ///< standby resumed; launches unfreeze
    kCascadeCrash,   ///< dependent node crash (id = pending index)
};

struct Event
{
    double time = 0.0;
    std::uint64_t seq = 0;  ///< FIFO tie-break, stamped by the queue
    EventKind kind = EventKind::kFinish;
    std::uint32_t id = 0;  ///< attempt id, or task id for kReady
};

/**
 * Every launch pushes a finish (or crash), a watchdog deadline and a
 * speculation check, none of them ever cancelled. Pushes of one kind
 * mostly arrive in time order, so each kind gets a lane; the other
 * kinds are rare and go to the heap.
 */
using EventQueue = LanedEventQueue<Event, 3>;

std::size_t
lane_of(EventKind kind)
{
    switch (kind) {
      case EventKind::kFinish:
      case EventKind::kCrash: return 0;
      case EventKind::kWatchdog: return 1;
      case EventKind::kSpecCheck: return 2;
      default: return EventQueue::kHeap;
    }
}

struct PhaseResult
{
    double end_time = 0.0;
    bool failed = false;
    std::string error;
};

/**
 * Discrete-event simulation of one slot-scheduled task phase (map or
 * reduce wave) with Hadoop 1.x recovery behaviour plus the self-healing
 * layer (watchdog, partitions, master failover, cascades, degradation).
 * Every fault hook is armed only when the injector's plan can fire, so
 * fault-free phases replay the pre-hardening event stream bit for bit.
 */
/** Simulated cluster seconds as trace-timeline microseconds. */
constexpr double kSimSecondsToUs = 1e6;

class PhaseSim
{
  public:
    PhaseSim(const SchedulerConfig& cfg, ClusterState& cluster,
             fault::FaultInjector* injector, JobRun& stats,
             std::uint32_t task_count, double nominal_task_s,
             std::uint32_t slots_per_node, bool lose_outputs_on_crash,
             obs::TraceWriter* trace = nullptr,
             const char* phase_label = "task")
        : cfg_(cfg), cluster_(cluster), injector_(injector), stats_(stats),
          nominal_task_s_(nominal_task_s), slots_per_node_(slots_per_node),
          lose_outputs_(lose_outputs_on_crash), trace_(trace),
          phase_label_(phase_label),
          faults_armed_(injector != nullptr &&
                        injector->plan().any_faults()),
          tasks_(task_count)
    {
    }

    PhaseResult run(double start_time);

    const std::vector<TaskState>& tasks() const { return tasks_; }

  private:
    void push_event(double time, EventKind kind, std::uint32_t id);
    /** Span for a finished/killed attempt on its node's trace lane. */
    void trace_attempt(const Attempt& a, double end, const char* outcome);
    /** Instant scheduler decision on a node's trace lane. */
    void trace_instant(const std::string& name, std::uint32_t node,
                       double time);
    /** Pick the launch target: alive, reachable, not blacklisted, most
        free slots. */
    int pick_node(int exclude = -1) const;
    void launch(std::uint32_t task, std::uint32_t node, double now,
                bool speculative);
    void release_slot(std::uint32_t node);
    void kill_attempt(std::uint32_t id, double now);
    /** FAILED path: counts against the retry budget, may blacklist the
        node, schedules the backoff retry. */
    void fail_attempt(std::uint32_t id, double now, const char* outcome);
    /** KILLED path: no budget charge, immediate requeue. */
    void strand_attempt(std::uint32_t id, double now, const char* outcome);
    /** Retry delay with degradation widening and seeded jitter. */
    double backoff_for(std::uint32_t task, std::uint32_t failed) const;
    /** Track fault pressure; flip into degraded mode past the ratio. */
    void note_pressure(double now);
    /** A recovery window closed: does it cascade into a node crash? */
    void check_cascade(double now);
    /** Take one node out for good; returns false if it was already
        dead. Kills its attempts (KILLED) and loses its map output. */
    bool kill_node(std::uint32_t idx, double now);
    void try_launch(double now);
    void on_finish(const Event& e);
    void on_crash(const Event& e);
    void on_spec_check(const Event& e);
    void on_node_crash(const Event& e);
    void on_watchdog(const Event& e);
    void on_rack_crash(const Event& e);
    void on_partition(const Event& e);
    void on_partition_heal(const Event& e);
    void on_master_crash(const Event& e);
    void on_failover(const Event& e);
    void on_cascade_crash(const Event& e);

    const SchedulerConfig& cfg_;
    ClusterState& cluster_;
    fault::FaultInjector* injector_;
    JobRun& stats_;
    double nominal_task_s_;
    std::uint32_t slots_per_node_;
    bool lose_outputs_;
    obs::TraceWriter* trace_;
    const char* phase_label_;
    /** True only when the plan has a fault that can fire: gates every
        new event source so zero-fault runs stay bit-identical. */
    bool faults_armed_;

    std::vector<TaskState> tasks_;
    std::vector<Attempt> attempts_;
    std::deque<std::uint32_t> ready_;
    EventQueue events_;
    std::uint32_t completed_ = 0;
    std::uint32_t pressure_ = 0;  ///< failed + watchdog-killed attempts
    bool degraded_ = false;
    double frozen_until_ = -1.0;  ///< no launches during master failover
    bool failed_ = false;
    std::string error_;
};

void
PhaseSim::push_event(double time, EventKind kind, std::uint32_t id)
{
    events_.push(Event{time, 0, kind, id}, lane_of(kind));
}

void
PhaseSim::trace_attempt(const Attempt& a, double end, const char* outcome)
{
    if (trace_ == nullptr)
        return;
    std::string name = std::string(phase_label_) + " t" +
                       std::to_string(a.task);
    if (a.speculative)
        name += " spec";
    trace_->complete(name, "task", obs::TraceWriter::kClusterPid, a.node,
                     a.start * kSimSecondsToUs,
                     (end - a.start) * kSimSecondsToUs,
                     std::string("{\"outcome\": \"") + outcome + "\"}");
}

void
PhaseSim::trace_instant(const std::string& name, std::uint32_t node,
                        double time)
{
    if (trace_ == nullptr)
        return;
    trace_->instant(name, "scheduler", obs::TraceWriter::kClusterPid,
                    node, time * kSimSecondsToUs);
}

int
PhaseSim::pick_node(int exclude) const
{
    int best = -1;
    std::uint32_t best_free = 0;
    for (std::uint32_t i = 0; i < cluster_.nodes.size(); ++i) {
        const Node& node = cluster_.nodes[i];
        if (!node.alive || node.blacklisted || node.partitioned ||
            node.free_slots == 0)
            continue;
        if (static_cast<int>(i) == exclude)
            continue;
        if (node.free_slots > best_free) {
            best = static_cast<int>(i);
            best_free = node.free_slots;
        }
    }
    return best;
}

void
PhaseSim::release_slot(std::uint32_t node_idx)
{
    Node& node = cluster_.nodes[node_idx];
    if (node.alive)
        ++node.free_slots;
}

void
PhaseSim::launch(std::uint32_t task, std::uint32_t node_idx, double now,
                 bool speculative)
{
    Node& node = cluster_.nodes[node_idx];
    DCB_EXPECTS(node.alive && node.free_slots > 0);
    --node.free_slots;

    TaskState& t = tasks_[task];
    ++t.started;
    // Attempt number in the retry chain (speculative copies share their
    // original's number, as Hadoop counts tracker retries, not backups).
    if (!speculative)
        stats_.max_task_attempts =
            std::max(stats_.max_task_attempts, t.failed + 1);

    Attempt a;
    a.task = task;
    a.node = node_idx;
    a.start = now;
    a.live = true;
    a.speculative = speculative;

    double duration = nominal_task_s_ * node.speed;
    double crash_fraction = 1.0;
    bool hangs = false;
    if (injector_ != nullptr) {
        injector_->set_now(now);
        if (injector_->task_crashes(task, t.started, &crash_fraction)) {
            a.crashes = true;
            duration *= crash_fraction;
        } else if (injector_->task_hangs(task, t.started)) {
            // The attempt holds its slot and never reports back; only
            // the watchdog deadline can reclaim the task.
            hangs = true;
        }
    }
    a.finish = now + duration;

    const auto id = static_cast<std::uint32_t>(attempts_.size());
    attempts_.push_back(a);
    t.live_attempts.push_back(id);
    if (!hangs)
        push_event(a.finish,
                   a.crashes ? EventKind::kCrash : EventKind::kFinish, id);
    if (faults_armed_)
        push_event(now + cfg_.task_timeout_factor * nominal_task_s_ *
                             node.speed,
                   EventKind::kWatchdog, id);
    if (cfg_.speculation && !speculative && !degraded_)
        push_event(now + cfg_.speculative_slowdown * nominal_task_s_,
                   EventKind::kSpecCheck, id);
    if (speculative)
        ++stats_.speculative_launched;
}

void
PhaseSim::kill_attempt(std::uint32_t id, double now)
{
    Attempt& a = attempts_[id];
    if (!a.live)
        return;
    a.live = false;
    release_slot(a.node);
    stats_.wasted_task_s += now - a.start;
    trace_attempt(a, now, "killed");
    auto& live = tasks_[a.task].live_attempts;
    live.erase(std::remove(live.begin(), live.end(), id), live.end());
}

double
PhaseSim::backoff_for(std::uint32_t task, std::uint32_t failed) const
{
    double backoff =
        cfg_.backoff_base_s *
        std::pow(cfg_.backoff_factor, static_cast<double>(failed - 1));
    if (degraded_)
        backoff *= cfg_.degraded_backoff_factor;
    if (faults_armed_ && cfg_.backoff_jitter > 0.0) {
        // Stateless seeded jitter in [1-j, 1+j]: retries from one
        // correlated burst fan out instead of re-colliding on the same
        // instant, and replays agree because the factor is a pure
        // function of (seed, task, failure count).
        const std::uint64_t h = util::mix64(
            injector_->plan().seed ^
            util::mix64(0xB0FFULL + (std::uint64_t{task} << 8) + failed));
        const double u =
            static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
        backoff *= 1.0 + cfg_.backoff_jitter * (2.0 * u - 1.0);
    }
    return backoff;
}

void
PhaseSim::note_pressure(double now)
{
    ++pressure_;
    if (!faults_armed_ || degraded_)
        return;
    const double threshold = cfg_.degrade_failure_ratio *
                             static_cast<double>(tasks_.size());
    if (static_cast<double>(pressure_) <= threshold)
        return;
    // The cluster is failing faster than it is working: stop amplifying
    // load (no more speculative copies) and widen every backoff.
    degraded_ = true;
    ++stats_.degraded_phases;
    trace_instant("degraded-mode", 0, now);
}

void
PhaseSim::fail_attempt(std::uint32_t id, double now, const char* outcome)
{
    Attempt& a = attempts_[id];
    a.live = false;
    release_slot(a.node);
    stats_.wasted_task_s += now - a.start;
    trace_attempt(a, now, outcome);
    TaskState& t = tasks_[a.task];
    auto& live = t.live_attempts;
    live.erase(std::remove(live.begin(), live.end(), id), live.end());

    ++t.failed;
    ++stats_.task_failures;
    note_pressure(now);

    // Blacklist chronically failing nodes, but never more than 25% of
    // the cluster (Hadoop's mapred.cluster.*.blacklist.percent): a
    // cluster-wide fault burst must not take every tracker out of
    // service and deadlock the job.
    Node& node = cluster_.nodes[a.node];
    ++node.failures;
    std::uint32_t blacklisted = 0;
    for (const Node& n : cluster_.nodes)
        if (n.blacklisted)
            ++blacklisted;
    if (!node.blacklisted &&
        node.failures >= cfg_.blacklist_task_failures &&
        4 * (blacklisted + 1) <= cluster_.nodes.size()) {
        node.blacklisted = true;
        ++stats_.nodes_blacklisted;
        trace_instant("blacklist n" + std::to_string(a.node), a.node,
                      now);
    }

    if (t.failed >= cfg_.max_attempts) {
        failed_ = true;
        error_ = "task " + std::to_string(a.task) + " failed " +
                 std::to_string(t.failed) + " attempts (max_attempts=" +
                 std::to_string(cfg_.max_attempts) + ")";
        return;
    }
    // A surviving speculative copy makes the retry unnecessary.
    if (!t.live_attempts.empty())
        return;
    const double backoff = backoff_for(a.task, t.failed);
    push_event(now + backoff, EventKind::kReady, a.task);
    trace_instant("retry t" + std::to_string(a.task), a.node,
                  now + backoff);
}

void
PhaseSim::strand_attempt(std::uint32_t id, double now, const char* outcome)
{
    Attempt& a = attempts_[id];
    a.live = false;
    release_slot(a.node);
    stats_.wasted_task_s += now - a.start;
    trace_attempt(a, now, outcome);
    TaskState& t = tasks_[a.task];
    auto& live = t.live_attempts;
    live.erase(std::remove(live.begin(), live.end(), id), live.end());
    if (!t.done && t.live_attempts.empty())
        push_event(now, EventKind::kReady, a.task);
}

void
PhaseSim::try_launch(double now)
{
    if (now < frozen_until_)
        return;  // the JobTracker is failing over; nothing launches
    while (!ready_.empty()) {
        const int node = pick_node();
        if (node < 0)
            break;
        const std::uint32_t task = ready_.front();
        ready_.pop_front();
        if (tasks_[task].done)
            continue;
        launch(task, static_cast<std::uint32_t>(node), now, false);
    }
}

void
PhaseSim::on_finish(const Event& e)
{
    Attempt& a = attempts_[e.id];
    if (!a.live)
        return;  // killed earlier; stale event
    // A completion behind a network cut cannot be reported: it is held
    // until the heal (the watchdog may reclaim the task first, in which
    // case this event goes stale).
    if (cluster_.nodes[a.node].partitioned) {
        push_event(std::max(cluster_.partition_heal_time, e.time),
                   EventKind::kFinish, e.id);
        return;
    }
    TaskState& t = tasks_[a.task];
    a.live = false;
    release_slot(a.node);
    trace_attempt(a, e.time, "finish");
    auto& live = t.live_attempts;
    live.erase(std::remove(live.begin(), live.end(), e.id), live.end());
    if (t.done)
        return;
    t.done = true;
    t.completion_node = a.node;
    t.completion_time = e.time;
    stats_.attempt_sketch.insert(e.time - a.start);
    ++completed_;
    // First finisher wins; kill the losing copies.
    for (const std::uint32_t other : std::vector<std::uint32_t>(live)) {
        kill_attempt(other, e.time);
        ++stats_.speculative_wasted;
    }
}

void
PhaseSim::on_crash(const Event& e)
{
    Attempt& a = attempts_[e.id];
    if (!a.live)
        return;
    // A crash behind the cut is just as invisible as a completion: the
    // failure report surfaces at the heal (or the watchdog acts first).
    if (cluster_.nodes[a.node].partitioned) {
        push_event(std::max(cluster_.partition_heal_time, e.time),
                   EventKind::kCrash, e.id);
        return;
    }
    fail_attempt(e.id, e.time, "crash");
}

void
PhaseSim::on_spec_check(const Event& e)
{
    if (degraded_)
        return;  // degraded mode sheds speculation
    const Attempt& a = attempts_[e.id];
    if (!a.live || tasks_[a.task].done)
        return;
    TaskState& t = tasks_[a.task];
    if (t.live_attempts.size() >= 2)
        return;  // already has a backup copy
    const int node = pick_node(static_cast<int>(a.node));
    if (node >= 0) {
        trace_instant("speculate t" + std::to_string(a.task),
                      static_cast<std::uint32_t>(node), e.time);
        launch(a.task, static_cast<std::uint32_t>(node), e.time, true);
        return;
    }
    // Cluster saturated: re-check once slots may have freed up.
    push_event(e.time + 0.5 * nominal_task_s_, EventKind::kSpecCheck,
               e.id);
}

bool
PhaseSim::kill_node(std::uint32_t idx, double now)
{
    Node& node = cluster_.nodes[idx];
    if (!node.alive)
        return false;
    node.alive = false;
    node.free_slots = 0;
    ++stats_.nodes_lost;
    trace_instant("node-crash n" + std::to_string(idx), idx, now);

    // Running attempts on the node are KILLED, not FAILED: they are
    // re-queued immediately and do not count against max_attempts.
    for (std::uint32_t id = 0; id < attempts_.size(); ++id) {
        Attempt& a = attempts_[id];
        if (!a.live || a.node != idx)
            continue;
        a.live = false;
        stats_.wasted_task_s += now - a.start;
        trace_attempt(a, now, "node-lost");
        TaskState& t = tasks_[a.task];
        auto& live = t.live_attempts;
        live.erase(std::remove(live.begin(), live.end(), id), live.end());
        if (!t.done && t.live_attempts.empty())
            push_event(now, EventKind::kReady, a.task);
    }

    // Completed map output stored on the node is gone; those tasks must
    // re-execute on the survivors before reducers can fetch them.
    if (lose_outputs_) {
        for (std::uint32_t task = 0; task < tasks_.size(); ++task) {
            TaskState& t = tasks_[task];
            if (!t.done || t.completion_node != idx)
                continue;
            t.done = false;
            --completed_;
            ++stats_.maps_reexecuted;
            stats_.wasted_task_s += nominal_task_s_;
            trace_instant("map-output-lost t" + std::to_string(task), idx,
                          now);
            push_event(now, EventKind::kReady, task);
        }
    }
    return true;
}

void
PhaseSim::on_node_crash(const Event& e)
{
    if (cluster_.crash_fired)
        return;
    cluster_.crash_fired = true;
    if (kill_node(cluster_.crash_node, e.time) && injector_ != nullptr)
        injector_->record({fault::FaultKind::kNodeCrash, e.time,
                           cluster_.crash_node, 0, 0});
}

void
PhaseSim::on_watchdog(const Event& e)
{
    Attempt& a = attempts_[e.id];
    if (!a.live || tasks_[a.task].done)
        return;  // completed or already reclaimed; deadline is moot
    const Node& node = cluster_.nodes[a.node];
    ++stats_.watchdog_kills;
    if (injector_ != nullptr)
        injector_->record({fault::FaultKind::kWatchdogKill, e.time,
                           a.node, a.task, tasks_[a.task].started});
    if (!node.alive || node.partitioned) {
        // Stranded, not at fault: KILLED and requeued immediately, the
        // same grace Hadoop extends to tasks lost with their tracker.
        strand_attempt(e.id, e.time, "watchdog-kill");
        return;
    }
    // Hung on a healthy node: the task itself is suspect, so the kill
    // is FAILED and counts against the retry budget (fail_attempt also
    // feeds the degradation pressure counter).
    fail_attempt(e.id, e.time, "watchdog-kill");
}

void
PhaseSim::on_rack_crash(const Event& e)
{
    if (cluster_.rack_crash_fired)
        return;
    cluster_.rack_crash_fired = true;
    const std::uint32_t rack = cluster_.crash_rack;
    bool any = false;
    for (std::uint32_t i = cluster_.topology.rack_begin(rack);
         i < cluster_.topology.rack_end(rack); ++i)
        any = kill_node(i, e.time) || any;
    if (any) {
        ++stats_.racks_lost;
        if (injector_ != nullptr)
            injector_->record({fault::FaultKind::kRackPowerLoss, e.time,
                               rack, 0, 0});
    }
}

void
PhaseSim::on_partition(const Event& e)
{
    if (cluster_.partition_fired)
        return;
    cluster_.partition_fired = true;
    const std::uint32_t rack = cluster_.partition_rack;
    for (std::uint32_t i = cluster_.topology.rack_begin(rack);
         i < cluster_.topology.rack_end(rack); ++i)
        if (cluster_.nodes[i].alive)
            cluster_.nodes[i].partitioned = true;
    ++stats_.partitions;
    trace_instant("partition r" + std::to_string(rack),
                  cluster_.topology.rack_begin(rack), e.time);
    if (injector_ != nullptr)
        injector_->record({fault::FaultKind::kNetPartition, e.time, rack,
                           0, 0});
    push_event(std::max(cluster_.partition_heal_time, e.time),
               EventKind::kPartitionHeal, rack);
}

void
PhaseSim::on_partition_heal(const Event& e)
{
    if (!cluster_.partition_fired || cluster_.partition_healed)
        return;
    heal_partition(cluster_, stats_, injector_, e.time);
    trace_instant("partition-heal r" +
                      std::to_string(cluster_.partition_rack),
                  cluster_.topology.rack_begin(cluster_.partition_rack),
                  e.time);
    check_cascade(e.time);
}

void
PhaseSim::check_cascade(double now)
{
    if (injector_ == nullptr)
        return;
    std::uint32_t victim = 0;
    const std::uint64_t trigger = cluster_.recovery_windows++;
    if (!injector_->cascade_fires(
            trigger, static_cast<std::uint32_t>(cluster_.nodes.size()),
            &victim))
        return;
    // The thundering herd of rejoining work takes a marginal machine
    // down shortly after the recovery window closes.
    ++stats_.cascades_triggered;
    const auto idx =
        static_cast<std::uint32_t>(cluster_.pending_crashes.size());
    cluster_.pending_crashes.push_back({now + 1.0, victim, false});
    push_event(now + 1.0, EventKind::kCascadeCrash, idx);
}

void
PhaseSim::on_cascade_crash(const Event& e)
{
    auto& pending = cluster_.pending_crashes[e.id];
    if (pending.fired)
        return;
    pending.fired = true;
    if (kill_node(pending.node, e.time) && injector_ != nullptr)
        injector_->record({fault::FaultKind::kNodeCrash, e.time,
                           pending.node, 0, 0});
}

void
PhaseSim::on_master_crash(const Event& e)
{
    if (cluster_.master_crash_fired)
        return;
    cluster_.master_crash_fired = true;
    ++stats_.master_failovers;
    const double interval = cfg_.checkpoint_interval_s;
    const double checkpoint = std::floor(e.time / interval) * interval;
    stats_.checkpoints_taken =
        static_cast<std::uint32_t>(std::floor(e.time / interval));
    trace_instant("master-crash", 0, e.time);
    if (injector_ != nullptr)
        injector_->record(
            {fault::FaultKind::kMasterCrash, e.time, 0, 0, 0});

    // Everything in flight dies with the master: KILLED, requeued.
    for (std::uint32_t id = 0; id < attempts_.size(); ++id) {
        Attempt& a = attempts_[id];
        if (!a.live)
            continue;
        a.live = false;
        release_slot(a.node);
        stats_.wasted_task_s += e.time - a.start;
        trace_attempt(a, e.time, "master-lost");
        TaskState& t = tasks_[a.task];
        auto& live = t.live_attempts;
        live.erase(std::remove(live.begin(), live.end(), id), live.end());
        if (!t.done && live.empty())
            push_event(e.time, EventKind::kReady, a.task);
    }
    // Completions after the last periodic checkpoint were never
    // persisted; the standby's job history ends at the checkpoint, so
    // those tasks run again (committed earlier phases are untouched).
    for (std::uint32_t task = 0; task < tasks_.size(); ++task) {
        TaskState& t = tasks_[task];
        if (!t.done)
            continue;
        if (t.completion_time > checkpoint) {
            t.done = false;
            --completed_;
            ++stats_.tasks_lost_to_failover;
            stats_.wasted_task_s += nominal_task_s_;
            push_event(e.time, EventKind::kReady, task);
        } else {
            ++stats_.tasks_restored;
        }
    }
    frozen_until_ = e.time + cfg_.failover_delay_s;
    push_event(frozen_until_, EventKind::kFailover, 0);
}

void
PhaseSim::on_failover(const Event& e)
{
    trace_instant("master-failover", 0, e.time);
    if (injector_ != nullptr)
        injector_->record(
            {fault::FaultKind::kMasterFailover, e.time, 0, 0, 0});
    check_cascade(e.time);
}

PhaseResult
PhaseSim::run(double start_time)
{
    PhaseResult result;
    result.end_time = start_time;
    if (tasks_.empty())
        return result;

    for (std::uint32_t node = 0; node < cluster_.nodes.size(); ++node) {
        Node& n = cluster_.nodes[node];
        n.free_slots = n.alive ? slots_per_node_ : 0;
    }
    for (std::uint32_t task = 0; task < tasks_.size(); ++task)
        ready_.push_back(task);
    if (!cluster_.crash_fired && cluster_.crash_time >= 0.0 &&
        cluster_.crash_node < cluster_.nodes.size())
        push_event(std::max(cluster_.crash_time, start_time),
                   EventKind::kNodeCrash, cluster_.crash_node);
    if (faults_armed_) {
        if (!cluster_.rack_crash_fired && cluster_.rack_crash_time >= 0.0)
            push_event(std::max(cluster_.rack_crash_time, start_time),
                       EventKind::kRackCrash, cluster_.crash_rack);
        if (!cluster_.partition_fired && cluster_.partition_time >= 0.0)
            push_event(std::max(cluster_.partition_time, start_time),
                       EventKind::kPartition, cluster_.partition_rack);
        if (cluster_.partition_fired && !cluster_.partition_healed)
            push_event(std::max(cluster_.partition_heal_time, start_time),
                       EventKind::kPartitionHeal,
                       cluster_.partition_rack);
        if (!cluster_.master_crash_fired &&
            cluster_.master_crash_time >= 0.0)
            push_event(std::max(cluster_.master_crash_time, start_time),
                       EventKind::kMasterCrash, 0);
        for (std::uint32_t i = 0; i < cluster_.pending_crashes.size();
             ++i)
            if (!cluster_.pending_crashes[i].fired)
                push_event(std::max(cluster_.pending_crashes[i].time,
                                    start_time),
                           EventKind::kCascadeCrash, i);
    }

    // Structural no-hang guarantee: even a pathological plan cannot spin
    // the loop forever -- the budget is far above what max_attempts
    // tries of every task plus bookkeeping can legitimately generate.
    const std::uint64_t budget =
        1000ull * (static_cast<std::uint64_t>(tasks_.size()) + 16ull) *
        std::max<std::uint64_t>(1, cfg_.max_attempts);
    std::uint64_t processed = 0;

    double now = start_time;
    try_launch(now);
    while (completed_ < tasks_.size() && !failed_) {
        if (events_.empty()) {
            failed_ = true;
            error_ = "no schedulable nodes left (dead or blacklisted) "
                     "with tasks still pending";
            break;
        }
        if (++processed > budget) {
            failed_ = true;
            error_ = "event budget exceeded (" + std::to_string(budget) +
                     " events): scheduler livelock";
            break;
        }
        const Event e = events_.pop();
        now = std::max(now, e.time);
        if (injector_ != nullptr)
            injector_->set_now(now);
        switch (e.kind) {
          case EventKind::kFinish: on_finish(e); break;
          case EventKind::kCrash: on_crash(e); break;
          case EventKind::kReady: ready_.push_back(e.id); break;
          case EventKind::kSpecCheck: on_spec_check(e); break;
          case EventKind::kNodeCrash: on_node_crash(e); break;
          case EventKind::kWatchdog: on_watchdog(e); break;
          case EventKind::kRackCrash: on_rack_crash(e); break;
          case EventKind::kPartition: on_partition(e); break;
          case EventKind::kPartitionHeal: on_partition_heal(e); break;
          case EventKind::kMasterCrash: on_master_crash(e); break;
          case EventKind::kFailover: on_failover(e); break;
          case EventKind::kCascadeCrash: on_cascade_crash(e); break;
        }
        try_launch(now);
    }
    result.end_time = now;
    result.failed = failed_;
    result.error = error_;
    return result;
}

}  // namespace

std::string
validate(const SchedulerConfig& config)
{
    if (config.max_attempts < 1)
        return "SchedulerConfig.max_attempts must be >= 1";
    if (config.backoff_base_s < 0.0)
        return "SchedulerConfig.backoff_base_s must be >= 0";
    if (config.backoff_factor < 1.0)
        return "SchedulerConfig.backoff_factor must be >= 1";
    if (config.speculative_slowdown <= 1.0)
        return "SchedulerConfig.speculative_slowdown must be > 1 (a copy "
               "of every on-time task would double the cluster load)";
    if (config.blacklist_task_failures < 1)
        return "SchedulerConfig.blacklist_task_failures must be >= 1";
    if (config.task_timeout_factor <= config.speculative_slowdown)
        return "SchedulerConfig.task_timeout_factor must exceed "
               "speculative_slowdown (speculation gets first shot at "
               "stragglers before the watchdog kills them)";
    if (config.backoff_jitter < 0.0 || config.backoff_jitter >= 1.0)
        return "SchedulerConfig.backoff_jitter must be in [0, 1) (full "
               "jitter could produce a zero or negative backoff)";
    if (config.checkpoint_interval_s <= 0.0)
        return "SchedulerConfig.checkpoint_interval_s must be positive";
    if (config.failover_delay_s < 0.0)
        return "SchedulerConfig.failover_delay_s must be >= 0";
    if (config.degrade_failure_ratio <= 0.0)
        return "SchedulerConfig.degrade_failure_ratio must be positive "
               "(zero would degrade every phase on its first failure)";
    if (config.degraded_backoff_factor < 1.0)
        return "SchedulerConfig.degraded_backoff_factor must be >= 1 "
               "(degradation widens backoff, never shrinks it)";
    return "";
}

TaskProfile
derive_task_profile(const JobSpec& job, const ClusterConfig& c)
{
    const double n = c.slaves;
    const double input_bytes = job.input_gb * kGiB;
    const double inter_bytes = input_bytes * job.map_output_ratio;
    const double output_bytes = input_bytes * job.output_ratio;
    const double total_ops = job.total_instructions_g * 1e9;
    const double node_ops_s =
        c.cores_per_node * c.effective_ipc * c.frequency_ghz * 1e9;
    const double disk_bw = c.disk.bandwidth_mb_s * kMiB;
    const double net_bw = c.network.bandwidth_mb_s * kMiB;

    // Same task population the analytic model uses (real-valued for the
    // rate math, integral for the event simulation).
    const double tasks = std::max(
        1.0, input_bytes / (static_cast<double>(c.split_mb) * kMiB));
    const auto map_count = static_cast<std::uint32_t>(std::ceil(tasks));
    const double map_slot_total = n * c.map_slots;
    const double waves = std::ceil(tasks / map_slot_total);

    // ---- Per-iteration rates, mirroring the analytic model. ------------
    const double map_ops = total_ops * (1.0 - job.reduce_fraction) /
                           job.iterations;
    const double map_work_one_node =
        std::max(map_ops / node_ops_s,
                 (input_bytes + inter_bytes) / disk_bw / job.iterations);
    const double sf_map = straggler_factor(
        c.straggler_sigma, std::min(tasks, map_slot_total));
    // Nominal per-task map time: spreads the one-node aggregate work
    // over the task population so that `tasks / (n * map_slots)` full
    // waves reproduce the analytic phase time exactly.
    const double map_task_s =
        map_work_one_node * c.map_slots / tasks * sf_map;

    const double cross_fraction = n > 1.0 ? (n - 1.0) / n : 0.0;
    const double shuffle_bytes = inter_bytes * cross_fraction /
                                 job.iterations;
    const double incast = 1.0 + 0.05 * (n - 1.0);
    const double shuffle_raw_s = shuffle_bytes / (n * net_bw / incast);

    const double reduce_ops = total_ops * job.reduce_fraction /
                              job.iterations;
    const double reduce_cpu_s = reduce_ops / (n * node_ops_s);
    const double replicas_remote = n > 1.0 ? 1.0 : 0.0;
    const double out_disk_s = output_bytes * (1.0 + replicas_remote) /
                              (n * disk_bw) / job.iterations;
    const double out_net_s = output_bytes * replicas_remote /
                             (n * net_bw) / job.iterations;
    const double reduce_tasks = std::min(n * c.reduce_slots, tasks);
    const double sf_reduce =
        straggler_factor(c.straggler_sigma, reduce_tasks);
    // Reducers span the whole phase: one wave of `reduce_tasks` tasks.
    const double reduce_task_s =
        std::max({reduce_cpu_s, out_disk_s, out_net_s}) * sf_reduce;
    const auto reduce_count =
        static_cast<std::uint32_t>(std::ceil(reduce_tasks));

    const double work_one_node =
        (map_work_one_node +
         std::max(reduce_ops / node_ops_s,
                  output_bytes / disk_bw / job.iterations));
    const double serial_s = job.serial_fraction * work_one_node;
    const double task_overhead = waves * c.task_overhead_s +
                                 c.job_overhead_s;
    const double par = 1.0 - job.serial_fraction;

    TaskProfile p;
    p.map_count = map_count;
    p.reduce_count = reduce_count;
    p.tasks = tasks;
    p.reduce_tasks = reduce_tasks;
    p.map_task_s = map_task_s;
    p.reduce_task_s = reduce_task_s;
    p.shuffle_raw_s = shuffle_raw_s;
    p.task_overhead_s = task_overhead;
    p.serial_s = serial_s;
    p.par = par;
    p.inter_bytes = inter_bytes;
    p.output_bytes = output_bytes;
    p.replicas_remote = replicas_remote;
    return p;
}

TaskCounts
expected_task_counts(const JobSpec& job, const ClusterConfig& cluster)
{
    // Mirrors the task-population math in ClusterScheduler::run below
    // (and the analytic model): this is the contract the chaos harness
    // holds completed jobs to.
    const double input_bytes = job.input_gb * kGiB;
    const double tasks = std::max(
        1.0,
        input_bytes / (static_cast<double>(cluster.split_mb) * kMiB));
    const double reduce_tasks = std::min(
        static_cast<double>(cluster.slaves) * cluster.reduce_slots,
        tasks);
    TaskCounts counts;
    counts.maps = static_cast<std::uint64_t>(std::ceil(tasks)) *
                  job.iterations;
    counts.reduces = static_cast<std::uint64_t>(std::ceil(reduce_tasks)) *
                     job.iterations;
    return counts;
}

ClusterScheduler::ClusterScheduler(const SchedulerConfig& config)
    : config_(config)
{
}

JobRun
ClusterScheduler::run(const JobSpec& job, const ClusterConfig& c,
                      fault::FaultInjector* injector,
                      obs::TraceWriter* trace,
                      const std::string& job_name) const
{
    JobRun r;
    for (const std::string& err :
         {validate(c), validate(job), validate(config_),
          injector != nullptr ? fault::validate(injector->plan())
                              : std::string()}) {
        if (!err.empty()) {
            r.completed = false;
            r.error = err;
            return r;
        }
    }

    // Task populations and per-task service rates: one derivation
    // (derive_task_profile) shared with the sharded multi-job engine,
    // so both engines run identical nominal task times.
    const TaskProfile profile = derive_task_profile(job, c);
    const double n = c.slaves;
    const double inter_bytes = profile.inter_bytes;
    const double output_bytes = profile.output_bytes;
    const double tasks = profile.tasks;
    const std::uint32_t map_count = profile.map_count;
    const double map_task_s = profile.map_task_s;
    const double shuffle_raw_s = profile.shuffle_raw_s;
    const double replicas_remote = profile.replicas_remote;
    const double reduce_task_s = profile.reduce_task_s;
    const std::uint32_t reduce_count = profile.reduce_count;
    const double serial_s = profile.serial_s;
    const double task_overhead = profile.task_overhead_s;
    const double par = profile.par;

    // ---- Cluster state shared across phases and iterations. ------------
    ClusterState state;
    state.nodes.resize(c.slaves);
    state.topology = fault::Topology(c.slaves, c.racks);
    if (injector != nullptr) {
        const fault::FaultPlan& plan = injector->plan();
        for (std::uint32_t i = 0; i < c.slaves; ++i) {
            state.nodes[i].speed = injector->node_speed_multiplier(i);
            if (state.nodes[i].speed > 1.0)
                injector->record({fault::FaultKind::kSlowNode, 0.0, i, 0,
                                  0});
        }
        if (plan.node_crash_time_s >= 0.0 && plan.crash_node < c.slaves) {
            state.crash_time = plan.node_crash_time_s;
            state.crash_node = plan.crash_node;
        }
        if (plan.rack_crash_time_s >= 0.0 &&
            plan.crash_rack < state.topology.racks()) {
            state.rack_crash_time = plan.rack_crash_time_s;
            state.crash_rack = plan.crash_rack;
        }
        if (plan.partition_time_s >= 0.0 &&
            plan.partition_rack < state.topology.racks()) {
            state.partition_time = plan.partition_time_s;
            state.partition_heal_time =
                plan.partition_time_s + plan.partition_duration_s;
            state.partition_rack = plan.partition_rack;
        }
        if (plan.master_crash_time_s >= 0.0)
            state.master_crash_time = plan.master_crash_time_s;
    }

    // Trace lanes: one per node plus a phase lane past the last node.
    const std::uint64_t phase_lane = c.slaves;
    const std::size_t fault_mark =
        injector != nullptr ? injector->log().events().size() : 0;
    if (trace != nullptr) {
        trace->name_process(obs::TraceWriter::kClusterPid,
                            "cluster (simulated time)");
        trace->name_thread(obs::TraceWriter::kClusterPid, phase_lane,
                           job_name + " phases");
        for (std::uint32_t i = 0; i < c.slaves; ++i)
            trace->name_thread(obs::TraceWriter::kClusterPid, i,
                               "node " + std::to_string(i));
    }

    // The event clock tracks task execution only; fixed overheads and
    // the Amdahl residue are added per iteration, exactly as the
    // analytic model does. FaultPlan times (node/rack crash, partition,
    // master crash) are interpreted on this task timeline.
    double clock = 0.0;
    double map_wasted_s = 0.0;
    double reduce_wasted_s = 0.0;
    JobTimings& t = r.timings;
    for (std::uint32_t it = 0; it < job.iterations; ++it) {
        // ---- Map phase --------------------------------------------------
        double waste_mark = r.wasted_task_s;
        PhaseSim map_sim(config_, state, injector, r, map_count,
                         map_task_s, c.map_slots, true, trace, "map");
        const double map_start = clock;
        const PhaseResult map_res = map_sim.run(clock);
        double map_i = map_res.end_time - clock;
        clock = map_res.end_time;
        if (trace != nullptr)
            trace->complete("map it" + std::to_string(it), "phase",
                            obs::TraceWriter::kClusterPid, phase_lane,
                            map_start * kSimSecondsToUs,
                            map_i * kSimSecondsToUs);
        map_wasted_s += r.wasted_task_s - waste_mark;
        if (map_res.failed) {
            r.completed = false;
            r.error = "map phase: " + map_res.error;
        } else {
            r.maps_completed += map_count;
        }

        // ---- Shuffle: receiver-link bound, half overlapped with map. ----
        double shuffle_i = 0.0;
        if (!map_res.failed) {
            shuffle_i = std::max(0.0, shuffle_raw_s - 0.5 * map_i);
            double shuffle_end = clock + shuffle_i;

            // Nodes lost inside the shuffle window take their finished
            // map output with them: the survivors re-execute those maps
            // and re-serve the partitions before reducers can finish
            // fetching.
            auto lose_nodes = [&](const std::vector<std::uint32_t>& dead)
            {
                std::uint32_t lost = 0;
                for (const std::uint32_t idx : dead) {
                    Node& node = state.nodes[idx];
                    if (!node.alive)
                        continue;
                    node.alive = false;
                    node.free_slots = 0;
                    ++r.nodes_lost;
                    for (const TaskState& task : map_sim.tasks())
                        if (task.done && task.completion_node == idx)
                            ++lost;
                }
                if (lost == 0)
                    return;
                const double alive_slots = state.alive_slots(c.map_slots);
                if (alive_slots == 0) {
                    r.completed = false;
                    r.error = "node loss mid-shuffle left no "
                              "schedulable nodes";
                    return;
                }
                const double reexec_s =
                    std::ceil(lost / alive_slots) * map_task_s;
                const double reshuffle_s = shuffle_raw_s * lost / tasks;
                r.maps_reexecuted += lost;
                r.wasted_task_s += lost * map_task_s;
                map_wasted_s += lost * map_task_s;
                shuffle_i += reexec_s + reshuffle_s;
                shuffle_end += reexec_s + reshuffle_s;
            };

            if (!state.crash_fired && state.crash_time >= 0.0 &&
                state.crash_time > clock &&
                state.crash_time <= shuffle_end) {
                state.crash_fired = true;
                if (injector != nullptr)
                    injector->record({fault::FaultKind::kNodeCrash,
                                      state.crash_time, state.crash_node,
                                      0, 0});
                lose_nodes({state.crash_node});
            }
            if (r.completed && !state.rack_crash_fired &&
                state.rack_crash_time >= 0.0 &&
                state.rack_crash_time > clock &&
                state.rack_crash_time <= shuffle_end) {
                state.rack_crash_fired = true;
                ++r.racks_lost;
                if (injector != nullptr)
                    injector->record({fault::FaultKind::kRackPowerLoss,
                                      state.rack_crash_time,
                                      state.crash_rack, 0, 0});
                lose_nodes(
                    state.topology.nodes_in_rack(state.crash_rack));
            }

            // A partition epoch overlapping the shuffle: map output
            // behind the cut cannot be fetched until the heal, so the
            // shuffle stalls for it; the heal then forgives the rack.
            if (r.completed && !state.partition_fired &&
                state.partition_time >= 0.0 &&
                state.partition_time > clock &&
                state.partition_time <= shuffle_end) {
                state.partition_fired = true;
                for (const std::uint32_t i :
                     state.topology.nodes_in_rack(state.partition_rack))
                    if (state.nodes[i].alive)
                        state.nodes[i].partitioned = true;
                ++r.partitions;
                if (injector != nullptr)
                    injector->record({fault::FaultKind::kNetPartition,
                                      state.partition_time,
                                      state.partition_rack, 0, 0});
            }
            if (r.completed && state.partition_fired &&
                !state.partition_healed) {
                bool hostage = false;
                for (const TaskState& task : map_sim.tasks())
                    if (task.done &&
                        state.nodes[task.completion_node].partitioned)
                        hostage = true;
                if (hostage && state.partition_heal_time > shuffle_end) {
                    shuffle_i += state.partition_heal_time - shuffle_end;
                    shuffle_end = state.partition_heal_time;
                }
                if (state.partition_heal_time <= shuffle_end) {
                    heal_partition(state, r, injector,
                                   state.partition_heal_time);
                    std::uint32_t victim = 0;
                    const std::uint64_t trigger =
                        state.recovery_windows++;
                    if (injector != nullptr &&
                        injector->cascade_fires(trigger, c.slaves,
                                                &victim)) {
                        ++r.cascades_triggered;
                        state.pending_crashes.push_back(
                            {state.partition_heal_time + 1.0, victim,
                             false});
                    }
                }
            }

            if (trace != nullptr)
                trace->complete("shuffle it" + std::to_string(it),
                                "phase", obs::TraceWriter::kClusterPid,
                                phase_lane, clock * kSimSecondsToUs,
                                (shuffle_end - clock) * kSimSecondsToUs);
            clock = shuffle_end;
        }

        // ---- Reduce phase ----------------------------------------------
        double reduce_i = 0.0;
        if (r.completed) {
            waste_mark = r.wasted_task_s;
            PhaseSim reduce_sim(config_, state, injector, r, reduce_count,
                                reduce_task_s, c.reduce_slots, false,
                                trace, "reduce");
            const double reduce_start = clock;
            const PhaseResult red_res = reduce_sim.run(clock);
            reduce_i = red_res.end_time - clock;
            clock = red_res.end_time;
            if (trace != nullptr)
                trace->complete("reduce it" + std::to_string(it), "phase",
                                obs::TraceWriter::kClusterPid, phase_lane,
                                reduce_start * kSimSecondsToUs,
                                reduce_i * kSimSecondsToUs);
            reduce_wasted_s += r.wasted_task_s - waste_mark;
            if (red_res.failed) {
                r.completed = false;
                r.error = "reduce phase: " + red_res.error;
            } else {
                r.reduces_completed += reduce_count;
            }
        }

        t.map_s += par * map_i;
        t.shuffle_s += par * shuffle_i;
        t.reduce_s += par * reduce_i;
        t.overhead_s += task_overhead + serial_s;
        t.total_s += par * (map_i + shuffle_i + reduce_i) + serial_s +
                     task_overhead;
        if (!r.completed)
            break;
    }

    // ---- Figure 5 accounting: retried work re-spills and re-merges. ----
    const double map_nominal_s = map_task_s * map_count * job.iterations;
    const double reduce_nominal_s =
        reduce_task_s * reduce_count * job.iterations;
    const double map_waste_frac =
        map_nominal_s > 0.0 ? map_wasted_s / map_nominal_s : 0.0;
    const double reduce_waste_frac =
        reduce_nominal_s > 0.0 ? reduce_wasted_s / reduce_nominal_s : 0.0;
    const double write_bytes_per_node =
        (inter_bytes * (1.0 + map_waste_frac) +   // spill writes
         inter_bytes * (1.0 + reduce_waste_frac) +  // merge writes
         output_bytes * (1.0 + replicas_remote)) / n;
    t.disk_write_requests = write_bytes_per_node /
                            static_cast<double>(c.disk.request_bytes);
    t.disk_writes_per_second =
        t.total_s > 0.0 ? t.disk_write_requests / t.total_s : 0.0;

    // ---- Fault epochs: replay this run's injector log as instants. -----
    if (trace != nullptr && injector != nullptr) {
        const auto& events = injector->log().events();
        for (std::size_t i = fault_mark; i < events.size(); ++i) {
            const fault::FaultEvent& ev = events[i];
            trace->instant(fault::fault_kind_name(ev.kind), "fault",
                           obs::TraceWriter::kClusterPid, ev.node,
                           std::max(0.0, ev.time_s) * kSimSecondsToUs,
                           "{\"task\": " + std::to_string(ev.task) +
                               ", \"attempt\": " +
                               std::to_string(ev.attempt) + "}");
        }
    }

    // ---- Recovery cost: compare against the same run, fault free. ------
    if (injector != nullptr && injector->plan().any_faults()) {
        const JobRun base = run(job, c, nullptr);
        r.recovery_s = std::max(0.0, t.total_s - base.timings.total_s);
    }
    r.attempt_durations = obs::latency_stats(r.attempt_sketch);
    return r;
}

}  // namespace dcb::mapreduce
