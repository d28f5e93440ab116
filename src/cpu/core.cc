#include "cpu/core.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"

namespace dcb::cpu {

namespace {

/** Execution port class index for port cursors. */
enum PortClass : std::size_t { kPortAlu = 0, kPortFpu, kPortLoad, kPortStore };

/** Execution port by OpClass (a kNop issues on none). */
constexpr std::size_t kPortOf[] = {kPortAlu,   kPortFpu, kPortLoad,
                                   kPortStore, kPortAlu, kPortAlu};

/** OpOutcome::flags bits. */
enum OutcomeFlag : std::uint8_t {
    kItlbL1Miss = 1 << 0,
    kItlbWalk = 1 << 1,
    kDtlbL1Miss = 1 << 2,
    kDtlbWalk = 1 << 3,
    kMispredicted = 1 << 4,
};

constexpr std::size_t
idx(Event e)
{
    return static_cast<std::size_t>(e);
}

/** Slots of the functional pass's integer counts beyond the events. */
constexpr std::size_t kUserSlot = kEventCount;
constexpr std::size_t kKernelSlot = kEventCount + 1;
constexpr std::size_t kCountSlots = kEventCount + 2;

/**
 * Count one beyond-L1 access: an L2 access, then an L2 miss and L3
 * access, then an L3 miss, as far as it went.
 */
inline void
count_level(mem::HitLevel level, std::uint64_t* counts)
{
    ++counts[idx(Event::kL2Access)];
    const std::uint64_t past_l2 = level >= mem::HitLevel::kL3;
    counts[idx(Event::kL2Miss)] += past_l2;
    counts[idx(Event::kL3Access)] += past_l2;
    counts[idx(Event::kL3Miss)] += level == mem::HitLevel::kMemory;
}

}  // namespace

Core::Core(const CoreConfig& core_config,
           const mem::MemoryConfig& memory_config)
    : cfg_(core_config),
      page_table_(memory_config.walk_levels,
                  std::countr_zero(memory_config.page_bytes)),
      hierarchy_(memory_config),
      shared_tlb_(memory_config.l2_tlb, memory_config.page_bytes),
      itlb_(memory_config.itlb, memory_config, shared_tlb_, page_table_,
            [this](std::uint64_t a) { return timed_walker_access(a); }),
      dtlb_(memory_config.dtlb, memory_config, shared_tlb_, page_table_,
            [this](std::uint64_t a) { return timed_walker_access(a); }),
      branch_(std::make_unique<GsharePredictor>(
                  core_config.gshare_history_bits),
              core_config.btb_entries, core_config.btb_ways),
      walk_levels_(memory_config.walk_levels)
{
    cfg_.validate();
    page_shift_ = static_cast<std::uint32_t>(
        std::countr_zero(memory_config.page_bytes));
    // Fast-forward page walks warm the unified caches; under full
    // warming they also note the L2/L3 events a timed walk counts, so
    // full-stream event totals match exact mode.
    const auto warm_pte = [this](std::uint64_t a) {
        if (warm_counts_events_)
            walker_access(a);
        else
            hierarchy_.warm_walker_access(a);
    };
    itlb_.set_warm_pte_access(warm_pte);
    dtlb_.set_warm_pte_access(warm_pte);
    inv_fetch_width_ = 1.0 / cfg_.fetch_width;
    inv_dispatch_width_ = 1.0 / cfg_.dispatch_width;
    inv_retire_width_ = 1.0 / cfg_.retire_width;
    inv_rat_ports_ = 1.0 / cfg_.rat_read_ports;
    rat_demand_per_reg_ = (1.0 - cfg_.rat_bypass_fraction) * inv_rat_ports_;
    inv_ports_ = {1.0 / cfg_.alu_ports, 1.0 / cfg_.fpu_ports,
                  1.0 / cfg_.load_ports, 1.0 / cfg_.store_ports};
    rob_.assign(cfg_.rob_entries, 0.0);
    rs_.assign(cfg_.rs_entries, 0.0);
    load_buf_.assign(cfg_.load_buffer_entries, 0.0);
    store_buf_.assign(cfg_.store_buffer_entries, 0.0);
}

void
Core::note(Event e, double w, trace::Mode mode)
{
    stats_.add(e, w);
    pmu_.record(e, w, mode);
}

void
Core::note_unified_levels(mem::HitLevel level, trace::Mode mode)
{
    note(Event::kL2Access, 1.0, mode);
    if (level == mem::HitLevel::kL2)
        return;
    note(Event::kL2Miss, 1.0, mode);
    note(Event::kL3Access, 1.0, mode);
    if (level == mem::HitLevel::kL3)
        return;
    note(Event::kL3Miss, 1.0, mode);
}

std::uint32_t
Core::walker_access(std::uint64_t addr)
{
    const mem::AccessResult r = hierarchy_.walker_access(addr);
    note_unified_levels(r.level, cur_mode_);
    return r.latency;
}

std::uint32_t
Core::timed_walker_access(std::uint64_t addr)
{
    const mem::AccessResult r = hierarchy_.walker_access(addr);
    walk_ptes_ = static_cast<std::uint16_t>(
        (walk_ptes_ << 2) | static_cast<unsigned>(r.level));
    return r.latency;
}

void
Core::count_walk(std::uint16_t ptes, std::uint64_t* counts) const
{
    for (std::uint32_t j = 0; j < walk_levels_; ++j)
        count_level(static_cast<mem::HitLevel>((ptes >> (2 * j)) & 3u),
                    counts);
}

void
Core::set_direction_predictor(std::unique_ptr<DirectionPredictor> predictor)
{
    branch_ = BranchUnit(std::move(predictor), cfg_.btb_entries,
                         cfg_.btb_ways);
}

void
Core::consume(const trace::MicroOp& op)
{
    consume_batch(&op, 1);
}

void
Core::consume_batch(const trace::MicroOp* ops, std::size_t n)
{
    while (n > 0) {
        // A chunk ends where CoreStats must be exact mid-stream: at the
        // warm-up reset (which also zeroes the structures' counters, so
        // the functional pass must not run past it) and at each
        // telemetry row.
        std::uint64_t stop = telemetry_next_op_;
        if (warmup_reset_at_ > op_index_ && warmup_reset_at_ < stop)
            stop = warmup_reset_at_;
        const std::size_t m = static_cast<std::size_t>(
            std::min<std::uint64_t>({n, kChunkOps, stop - op_index_}));

        std::uint64_t counts[kCountSlots] = {};
        functional_pass(ops, m, counts);
        if (pmu_.enabled()) {
            if (telemetry_ != nullptr)
                timing_pass<true, true>(ops, m);
            else
                timing_pass<true, false>(ops, m);
        } else {
            if (telemetry_ != nullptr)
                timing_pass<false, true>(ops, m);
            else
                timing_pass<false, false>(ops, m);
        }
        // Unit-weight events are integer-valued doubles far below 2^53,
        // so one add of the chunk's count equals one add per event.
        for (std::size_t e = 0; e < kEventCount; ++e)
            if (counts[e] != 0)
                stats_.add(static_cast<Event>(e),
                           static_cast<double>(counts[e]));
        stats_.user_instructions += static_cast<double>(counts[kUserSlot]);
        stats_.kernel_instructions +=
            static_cast<double>(counts[kKernelSlot]);
        ops += m;
        n -= m;

        if (warmup_reset_at_ != 0 && op_index_ == warmup_reset_at_) {
            reset_counters();
            warmup_reset_at_ = 0;
        }
        if (op_index_ == telemetry_next_op_)
            telemetry_tick(false);
    }
}

void
Core::functional_pass(const trace::MicroOp* ops, std::size_t n,
                      std::uint64_t* counts)
{
    using trace::OpClass;
    for (std::size_t i = 0; i < n; ++i) {
        const trace::MicroOp& op = ops[i];
        OpOutcome& out = outcomes_[i];
        std::uint8_t flags = 0;

        // Front end: ITLB translation + L1I fetch.
        const mem::TranslationResult itr = itlb_.translate(op.fetch_addr);
        if (!itr.l1_hit) {
            flags |= kItlbL1Miss;
            ++counts[idx(Event::kITlbL1Miss)];
        }
        out.itlb_ptes = 0;
        if (itr.walked) {
            flags |= kItlbWalk;
            ++counts[idx(Event::kITlbWalk)];
            out.itlb_ptes = walk_ptes_;
            count_walk(walk_ptes_, counts);
            walk_ptes_ = 0;
        }
        const mem::AccessResult fa = hierarchy_.fetch(op.fetch_addr);
        out.fetch_level = fa.level;
        out.fetch_penalty = itr.latency;
        if (fa.level != mem::HitLevel::kL1) {
            ++counts[idx(Event::kL1IMiss)];
            count_level(fa.level, counts);
            out.fetch_penalty += fa.latency;
        }

        // Data side: DTLB translation + L1D (and the prefetcher), or
        // the branch unit.
        out.dtlb_ptes = 0;
        out.data_level = mem::HitLevel::kL1;
        out.data_latency = 0;
        if (op.cls == OpClass::kLoad || op.cls == OpClass::kStore) {
            const mem::TranslationResult dtr = dtlb_.translate(op.addr);
            if (!dtr.l1_hit) {
                flags |= kDtlbL1Miss;
                ++counts[idx(Event::kDTlbL1Miss)];
            }
            if (dtr.walked) {
                flags |= kDtlbWalk;
                ++counts[idx(Event::kDTlbWalk)];
                out.dtlb_ptes = walk_ptes_;
                count_walk(walk_ptes_, counts);
                walk_ptes_ = 0;
            }
            const bool store = op.cls == OpClass::kStore;
            const mem::AccessResult da = hierarchy_.data_access(op.addr,
                                                                store);
            ++counts[idx(store ? Event::kStores : Event::kLoads)];
            out.data_level = da.level;
            out.data_latency = da.latency + dtr.latency;
            if (da.level != mem::HitLevel::kL1) {
                ++counts[idx(Event::kL1DMiss)];
                count_level(da.level, counts);
            }
        } else if (op.cls == OpClass::kBranch) {
            ++counts[idx(Event::kBrRetired)];
            const bool mispredicted =
                op.indirect ? branch_.resolve_indirect(op.branch_key,
                                                       op.target_key)
                            : branch_.resolve_conditional(op.branch_key,
                                                          op.taken);
            if (mispredicted) {
                flags |= kMispredicted;
                ++counts[idx(Event::kBrMispred)];
            }
        }
        out.flags = flags;

        const std::uint64_t pf = hierarchy_.prefetch_fills();
        out.prefetch_fills = static_cast<std::uint32_t>(
            pf - seen_prefetch_fills_);
        seen_prefetch_fills_ = pf;
        const std::uint64_t pfm = hierarchy_.prefetch_memory_fills();
        out.prefetch_mem_fills = static_cast<std::uint32_t>(
            pfm - seen_prefetch_mem_fills_);
        seen_prefetch_mem_fills_ = pfm;
        counts[idx(Event::kPrefetchFill)] += out.prefetch_fills;
        ++counts[op.mode == trace::Mode::kUser ? kUserSlot : kKernelSlot];
    }
    counts[idx(Event::kInstRetired)] += n;
    counts[idx(Event::kL1IAccess)] += n;
    counts[idx(Event::kL1DAccess)] +=
        counts[idx(Event::kLoads)] + counts[idx(Event::kStores)];
}

template <bool kPmu, bool kResidence>
void
Core::timing_pass(const trace::MicroOp* ops, std::size_t n)
{
    using trace::OpClass;

    // The timeline, ring cursors and accumulators live in locals for
    // the whole chunk, and nothing in the loop calls out (the PMU
    // replay aside), so they stay in registers. Each fractional
    // accumulator starts from its CoreStats value and takes the chunk's
    // per-op terms in op order, so the written-back sums are
    // bit-identical to adding them op by op.
    double fetch_time = fetch_time_;
    double rename_time = rename_time_;
    double rat_read_time = rat_read_time_;
    double dispatch_time = dispatch_time_;
    double last_retire = last_retire_;
    double mem_bus_time = mem_bus_time_;
    std::array<double, 4> port_time = port_time_;
    std::uint64_t op_index = op_index_;

    double* const rob = rob_.data();
    double* const rs = rs_.data();
    double* const load_buf = load_buf_.data();
    double* const store_buf = store_buf_.data();
    const std::size_t rob_size = rob_.size();
    const std::size_t rs_size = rs_.size();
    const std::size_t load_size = load_buf_.size();
    const std::size_t store_size = store_buf_.size();
    std::size_t rob_cursor = rob_cursor_;
    std::size_t rs_cursor = rs_cursor_;
    std::size_t load_cursor = load_cursor_;
    std::size_t store_cursor = store_cursor_;

    double fetch_stall = stats_.get(Event::kFetchStallCycles);
    double rat_stall = stats_.get(Event::kRatStallCycles);
    double rob_stall = stats_.get(Event::kRobFullStallCycles);
    double rs_stall = stats_.get(Event::kRsFullStallCycles);
    double load_stall = stats_.get(Event::kLoadBufStallCycles);
    double store_stall = stats_.get(Event::kStoreBufStallCycles);
    double cycles = stats_.get(Event::kCycles);
    double rob_residence = rob_residence_;
    double rs_residence = rs_residence_;
    double load_residence = load_residence_;
    double store_residence = store_residence_;

    const double fetch_window =
        static_cast<double>(cfg_.rob_entries) * inv_dispatch_width_;
    const double inv_fetch_width = inv_fetch_width_;
    const double inv_dispatch_width = inv_dispatch_width_;
    const double inv_retire_width = inv_retire_width_;
    const double rat_demand_per_reg = rat_demand_per_reg_;
    const std::uint32_t hide_cycles = cfg_.frontend_hide_cycles;
    const std::uint32_t partial_reg_penalty = cfg_.partial_reg_penalty;
    const std::uint32_t mispredict_penalty = cfg_.mispredict_penalty;
    const double bus_cycles = cfg_.memory_bandwidth_cycles_per_line;
    // Execution latency by OpClass; a load takes its access latency.
    const std::uint32_t class_latency[] = {
        cfg_.alu_latency, cfg_.fpu_latency, 0, 1, cfg_.branch_latency, 0};

    for (std::size_t i = 0; i < n; ++i) {
        const trace::MicroOp& op = ops[i];
        const OpOutcome& out = outcomes_[i];
        const bool is_load = op.cls == OpClass::kLoad;
        const bool is_store = op.cls == OpClass::kStore;
        // fetch, RAT, ROB, RS and load/store-buffer stall of this op
        // (0 = none), for the PMU replay.
        double stalls[5] = {};

        // --------------------------------------------------------------
        // Front end. The fetch cursor may not run further ahead of
        // dispatch than the in-flight window allows; the decoupled
        // front end (fetch/uop queues) absorbs short instruction-supply
        // hiccups, and only the excess starves the core.
        // --------------------------------------------------------------
        // Every stall below is a non-negative excess (+0.0 when there
        // is none), and adding +0.0 leaves a cursor or accumulator
        // unchanged, so the updates need no branches.
        fetch_time = std::max(fetch_time, dispatch_time - fetch_window);
        const double frontend_penalty = std::max(
            0.0, static_cast<double>(out.fetch_penalty) - hide_cycles);
        fetch_stall += frontend_penalty;
        fetch_time += frontend_penalty;
        stalls[0] = frontend_penalty;
        fetch_time += inv_fetch_width;
        const double fetched = fetch_time;

        // --------------------------------------------------------------
        // Rename: width-limited, plus RAT read-port and partial-register
        // pressure (the paper's RAT-stall category).
        // --------------------------------------------------------------
        double renamed = std::max(fetched, rename_time + inv_dispatch_width);
        const double rat_arrival = renamed;
        const double rat_start = std::max(rat_read_time, rat_arrival);
        rat_read_time = rat_start + op.src_regs * rat_demand_per_reg;
        double rat_penalty = rat_start - rat_arrival;
        if (op.partial_reg)
            rat_penalty += partial_reg_penalty;
        rat_stall += rat_penalty;
        renamed += rat_penalty;
        stalls[1] = rat_penalty;
        rename_time = renamed;

        // --------------------------------------------------------------
        // Dispatch: needs a ROB entry, an RS entry, and a load/store
        // buffer entry. Each ring stores the release time of the entry
        // this op reuses; waiting on it is the corresponding "resource
        // full" stall.
        // --------------------------------------------------------------
        double dispatched = std::max(renamed,
                                     dispatch_time + inv_dispatch_width);
        const auto wait_for = [&dispatched](double release) {
            const bool full = release > dispatched;
            const double excess = full ? release - dispatched : 0.0;
            dispatched = full ? release : dispatched;
            return excess;
        };
        const std::size_t rob_slot = rob_cursor;
        if (++rob_cursor == rob_size)
            rob_cursor = 0;
        stalls[2] = wait_for(rob[rob_slot]);
        rob_stall += stalls[2];
        const std::size_t rs_slot = rs_cursor;
        if (++rs_cursor == rs_size)
            rs_cursor = 0;
        stalls[3] = wait_for(rs[rs_slot]);
        rs_stall += stalls[3];
        std::size_t lq_slot = 0;
        std::size_t sq_slot = 0;
        if (is_load) {
            lq_slot = load_cursor;
            if (++load_cursor == load_size)
                load_cursor = 0;
            stalls[4] = wait_for(load_buf[lq_slot]);
            load_stall += stalls[4];
        } else if (is_store) {
            sq_slot = store_cursor;
            if (++store_cursor == store_size)
                store_cursor = 0;
            stalls[4] = wait_for(store_buf[sq_slot]);
            store_stall += stalls[4];
        }
        dispatch_time = dispatched;

        // --------------------------------------------------------------
        // Issue: wait for the producer (dependency) and an execution
        // port.
        // --------------------------------------------------------------
        const double producer =
            comp_[(op_index - op.dep_dist) % kCompWindow];
        const bool has_producer = op.dep_dist > 0 &&
                                  op.dep_dist <= op_index &&
                                  op.dep_dist < kCompWindow;
        const double ready =
            has_producer ? std::max(dispatched, producer) : dispatched;

        const auto cls = static_cast<std::size_t>(op.cls);
        const std::size_t port = kPortOf[cls];
        std::uint32_t exec_latency =
            is_load ? out.data_latency : class_latency[cls];
        // A store is forwardable after address generation; the write
        // drains to the cache after retirement and holds the
        // store-buffer entry.
        const std::uint32_t store_drain = is_store ? out.data_latency : 0;
        if (is_load && out.data_level == mem::HitLevel::kMemory) {
            // Occupy the memory bus; queueing delay adds to the load.
            const double start = std::max(mem_bus_time, dispatched);
            mem_bus_time = start + bus_cycles;
            exec_latency += static_cast<std::uint32_t>(start - dispatched);
        }

        double issued = ready;
        if (op.cls != OpClass::kNop) {
            issued = std::max(port_time[port], ready);
            port_time[port] = issued + inv_ports_[port];
        }
        const double completed = issued + exec_latency;
        comp_[op_index % kCompWindow] = completed;
        rs[rs_slot] = issued;  // RS entry frees at issue

        // --------------------------------------------------------------
        // Retire: in order, at retire width.
        // --------------------------------------------------------------
        const double prev_retire = last_retire;
        const double retired = std::max(completed,
                                        last_retire + inv_retire_width);
        last_retire = retired;
        rob[rob_slot] = retired;
        if (is_load)
            load_buf[lq_slot] = completed;
        else if (is_store)
            store_buf[sq_slot] = retired + store_drain;

        if constexpr (kResidence) {
            // Residence integrals (op-cycles held per structure);
            // Little's law turns the per-interval residence delta into
            // the interval's mean occupancy at telemetry_tick() time.
            rob_residence += retired - dispatched;
            rs_residence += issued - dispatched;
            if (is_load)
                load_residence += completed - dispatched;
            else if (is_store)
                store_residence += retired + store_drain - dispatched;
        }

        // --------------------------------------------------------------
        // Branch resolution: a mispredict restarts the front end after
        // the branch resolves plus the refill depth. The recovery bubble
        // costs cycles but is not an instruction-fetch-stall *event*:
        // the paper's six Figure 6 counters do not include speculation
        // recovery, so it is not attributed there.
        // --------------------------------------------------------------
        if (out.flags & kMispredicted) {
            const double restart = completed + mispredict_penalty;
            if (restart > fetch_time)
                fetch_time = restart;
        }

        // Memory-sourced prefetches consume bus bandwidth
        // asynchronously.
        if (out.prefetch_mem_fills != 0) {
            mem_bus_time = std::max(mem_bus_time, dispatched) +
                           static_cast<double>(out.prefetch_mem_fills) *
                               bus_cycles;
        }

        cycles += retired - prev_retire;
        if constexpr (kPmu)
            replay_pmu(op, out, stalls, retired - prev_retire);
        ++op_index;
    }

    fetch_time_ = fetch_time;
    rename_time_ = rename_time;
    rat_read_time_ = rat_read_time;
    dispatch_time_ = dispatch_time;
    last_retire_ = last_retire;
    mem_bus_time_ = mem_bus_time;
    port_time_ = port_time;
    op_index_ = op_index;
    rob_cursor_ = rob_cursor;
    rs_cursor_ = rs_cursor;
    load_cursor_ = load_cursor;
    store_cursor_ = store_cursor;
    stats_.set(Event::kFetchStallCycles, fetch_stall);
    stats_.set(Event::kRatStallCycles, rat_stall);
    stats_.set(Event::kRobFullStallCycles, rob_stall);
    stats_.set(Event::kRsFullStallCycles, rs_stall);
    stats_.set(Event::kLoadBufStallCycles, load_stall);
    stats_.set(Event::kStoreBufStallCycles, store_stall);
    stats_.set(Event::kCycles, cycles);
    if constexpr (kResidence) {
        rob_residence_ = rob_residence;
        rs_residence_ = rs_residence;
        load_residence_ = load_residence;
        store_residence_ = store_residence;
    }
}

void
Core::replay_pmu(const trace::MicroOp& op, const OpOutcome& out,
                 const double* stalls, double cycles)
{
    using trace::OpClass;
    const trace::Mode mode = op.mode;
    const auto record = [this, mode](Event e, double w) {
        pmu_.record(e, w, mode);
    };
    const auto unified = [&record](mem::HitLevel level) {
        record(Event::kL2Access, 1.0);
        if (level == mem::HitLevel::kL2)
            return;
        record(Event::kL2Miss, 1.0);
        record(Event::kL3Access, 1.0);
        if (level == mem::HitLevel::kL3)
            return;
        record(Event::kL3Miss, 1.0);
    };
    const auto walk = [this, &unified](std::uint16_t ptes) {
        for (std::uint32_t j = walk_levels_; j-- > 0;)
            unified(static_cast<mem::HitLevel>((ptes >> (2 * j)) & 3u));
    };

    if (out.flags & kItlbWalk)
        walk(out.itlb_ptes);
    if (out.flags & kItlbL1Miss)
        record(Event::kITlbL1Miss, 1.0);
    if (out.flags & kItlbWalk)
        record(Event::kITlbWalk, 1.0);
    record(Event::kL1IAccess, 1.0);
    if (out.fetch_level != mem::HitLevel::kL1) {
        record(Event::kL1IMiss, 1.0);
        unified(out.fetch_level);
    }
    static constexpr Event kStallEvents[4] = {
        Event::kFetchStallCycles, Event::kRatStallCycles,
        Event::kRobFullStallCycles, Event::kRsFullStallCycles};
    for (std::size_t k = 0; k < 4; ++k)
        if (stalls[k] > 0.0)
            record(kStallEvents[k], stalls[k]);
    if (stalls[4] > 0.0)
        record(op.cls == OpClass::kLoad ? Event::kLoadBufStallCycles
                                        : Event::kStoreBufStallCycles,
               stalls[4]);
    if (op.cls == OpClass::kLoad || op.cls == OpClass::kStore) {
        if (out.flags & kDtlbWalk)
            walk(out.dtlb_ptes);
        if (out.flags & kDtlbL1Miss)
            record(Event::kDTlbL1Miss, 1.0);
        if (out.flags & kDtlbWalk)
            record(Event::kDTlbWalk, 1.0);
        record(op.cls == OpClass::kLoad ? Event::kLoads : Event::kStores,
               1.0);
        record(Event::kL1DAccess, 1.0);
        if (out.data_level != mem::HitLevel::kL1) {
            record(Event::kL1DMiss, 1.0);
            unified(out.data_level);
        }
    } else if (op.cls == OpClass::kBranch) {
        record(Event::kBrRetired, 1.0);
        if (out.flags & kMispredicted)
            record(Event::kBrMispred, 1.0);
    }
    if (out.prefetch_fills != 0)
        record(Event::kPrefetchFill,
               static_cast<double>(out.prefetch_fills));
    record(Event::kInstRetired, 1.0);
    record(Event::kCycles, cycles);
}

// --- Interval sampling --------------------------------------------------

void
Core::set_sample_layout(const sample::IntervalLayout& layout)
{
    sample_layout_ = layout;
    has_sample_layout_ = layout.sampled;
    warm_counts_events_ = layout.sampled && layout.full_warming;
}

const sample::IntervalLayout*
Core::sample_layout() const
{
    return has_sample_layout_ ? &sample_layout_ : nullptr;
}

void
Core::warm_one(const trace::MicroOp& op)
{
    using trace::OpClass;
    // Under full warming the warm path also notes the demand events the
    // timed path would (misses, walks, branches) -- warming covers the
    // whole stream, so the full-stream event totals then match exact
    // mode and the rate metrics are near-exact by construction. Timing
    // events (cycles, stalls) still come only from the windows.
    const bool count = warm_counts_events_;
    if (count)
        cur_mode_ = op.mode;  // walker_access attributes to cur_mode_
    switch (op.cls) {
      case OpClass::kNop: {
        // Line-granular fetch stream: warm the ITLB once per page
        // transition (the distinct-page sequence matches per-op
        // fetching) and the L1I for every line entered.
        const std::uint64_t page = op.fetch_addr >> page_shift_;
        if (page != last_warm_fetch_page_) {
            last_warm_fetch_page_ = page;
            if (itlb_.warm_translate(op.fetch_addr) && count)
                note(Event::kITlbWalk, 1.0, op.mode);
        }
        const mem::AccessResult fa = hierarchy_.fetch(op.fetch_addr);
        if (count && fa.level != mem::HitLevel::kL1) {
            note(Event::kL1IMiss, 1.0, op.mode);
            note_unified_levels(fa.level, op.mode);
        }
        break;
      }
      case OpClass::kLoad:
      case OpClass::kStore: {
        if (dtlb_.warm_translate(op.addr) && count)
            note(Event::kDTlbWalk, 1.0, op.mode);
        const mem::AccessResult da = hierarchy_.data_access(op.addr,
                                                            false);
        if (count && da.level != mem::HitLevel::kL1) {
            note(Event::kL1DMiss, 1.0, op.mode);
            note_unified_levels(da.level, op.mode);
        }
        break;
      }
      case OpClass::kBranch: {
        // The predictor/BTB state advances; no cycle accounting.
        const bool mispredicted =
            op.indirect ? branch_.resolve_indirect(op.branch_key,
                                                   op.target_key)
                        : branch_.resolve_conditional(op.branch_key,
                                                      op.taken);
        if (count) {
            note(Event::kBrRetired, 1.0, op.mode);
            if (mispredicted)
                note(Event::kBrMispred, 1.0, op.mode);
        }
        break;
      }
      default:
        break;
    }
}

void
Core::consume_warm_batch(const trace::MicroOp* ops, std::size_t n,
                         const trace::WarmSummary& represented)
{
    for (std::size_t i = 0; i < n; ++i)
        warm_one(ops[i]);
    warm_user_ops_ += represented.user_ops;
    warm_kernel_ops_ += represented.kernel_ops;
}

void
Core::begin_sample_window()
{
    // Prefetch fills issued while warming must not be charged to the
    // window's first op.
    seen_prefetch_fills_ = hierarchy_.prefetch_fills();
    seen_prefetch_mem_fills_ = hierarchy_.prefetch_memory_fills();
    // The dispatch clock does not advance across the fast-forward gap,
    // so release/completion times left from the previous window would
    // read as *current* pressure here -- store-buffer drains in
    // particular extend past the old window's end and would stall this
    // window's stores against phantom occupants. Start the rings cold
    // and let the discard head rebuild real pressure from this window's
    // own stream.
    std::fill(rob_.begin(), rob_.end(), 0.0);
    std::fill(rs_.begin(), rs_.end(), 0.0);
    std::fill(load_buf_.begin(), load_buf_.end(), 0.0);
    std::fill(store_buf_.begin(), store_buf_.end(), 0.0);
    comp_.fill(0.0);
    port_time_.fill(0.0);
    in_window_ = true;
    in_measurement_ = false;
}

void
Core::begin_window_measurement()
{
    // The discard head has re-pressurized the pipeline (occupancy rings,
    // port cursors); deltas from here see steady-state timing.
    window_base_ = stats_;
    window_pmu_base_ = pmu_.snapshot();
    in_measurement_ = true;
}

void
Core::end_sample_window()
{
    if (!in_window_ || !in_measurement_)
        return;
    in_window_ = false;
    in_measurement_ = false;
    WindowSample w;
    for (std::size_t i = 0; i < kEventCount; ++i) {
        const auto e = static_cast<Event>(i);
        w.events[i] = stats_.get(e) - window_base_.get(e);
    }
    w.user_instructions =
        stats_.user_instructions - window_base_.user_instructions;
    w.kernel_instructions =
        stats_.kernel_instructions - window_base_.kernel_instructions;
    w.pmu = delta(window_pmu_base_, pmu_.snapshot());
    windows_.push_back(w);
    // The window moved the fetch point through the timed path; the warm
    // page memo no longer reflects the last warm touch.
    last_warm_fetch_page_ = ~std::uint64_t{0};
}

void
Core::sampling_warmup_done()
{
    // Sampled-mode equivalent of the ramp-up counter reset: structures
    // stay warm, measurements start clean.
    reset_counters();
    warm_user_ops_ = 0;
    warm_kernel_ops_ = 0;
    windows_.clear();
}

void
Core::reset_counters()
{
    stats_ = CoreStats{};
    hierarchy_.reset_counters();
    itlb_.reset_counters();
    dtlb_.reset_counters();
    shared_tlb_.reset_counters();
    branch_.reset_counters();
    cycle_baseline_ = last_retire_;
    op_baseline_ = op_index_;
    rob_residence_ = rs_residence_ = 0.0;
    load_residence_ = store_residence_ = 0.0;
    rob_residence_base_ = rs_residence_base_ = 0.0;
    load_residence_base_ = store_residence_base_ = 0.0;
    if (telemetry_ != nullptr)
        telemetry_restart();
}

// --- Observability ------------------------------------------------------

std::vector<std::string>
Core::telemetry_columns()
{
    std::vector<std::string> cols;
    cols.reserve(kEventCount + 7);
    for (std::size_t i = 0; i < kEventCount; ++i)
        cols.emplace_back(event_name(static_cast<Event>(i)));
    cols.emplace_back("user_instr");
    cols.emplace_back("kernel_instr");
    cols.emplace_back("interval_ipc");
    cols.emplace_back("rob_occupancy");
    cols.emplace_back("rs_occupancy");
    cols.emplace_back("load_buf_occupancy");
    cols.emplace_back("store_buf_occupancy");
    return cols;
}

std::vector<bool>
Core::telemetry_additive()
{
    std::vector<bool> mask(kEventCount + 7, true);
    for (std::size_t i = kEventCount + 2; i < mask.size(); ++i)
        mask[i] = false;  // gauges: interval IPC, occupancy means
    return mask;
}

void
Core::set_telemetry(obs::TimeSeriesRecorder* recorder,
                    std::uint64_t interval_ops)
{
    telemetry_ = (recorder != nullptr && interval_ops > 0) ? recorder
                                                           : nullptr;
    telemetry_interval_ = interval_ops;
    rob_residence_ = rs_residence_ = 0.0;
    load_residence_ = store_residence_ = 0.0;
    rob_residence_base_ = rs_residence_base_ = 0.0;
    load_residence_base_ = store_residence_base_ = 0.0;
    if (telemetry_ != nullptr) {
        DCB_EXPECTS(recorder->columns().size() == kEventCount + 7);
        telemetry_restart();
    } else {
        telemetry_next_op_ = ~std::uint64_t{0};
    }
}

void
Core::telemetry_restart()
{
    telemetry_->reset();
    telemetry_prev_.fill(0.0);
    telemetry_last_op_ = op_index_;
    telemetry_next_op_ = op_index_ + telemetry_interval_;
}

void
Core::telemetry_tick(bool final_flush)
{
    const std::uint64_t dops = op_index_ - telemetry_last_op_;
    if (final_flush && dops == 0)
        return;
    std::array<double, kEventCount + 7> row{};
    // Additive columns: fitted deltas, so the recorder's left-to-right
    // running sum lands exactly on every cumulative counter value (and
    // therefore on the final report totals).
    for (std::size_t i = 0; i < kEventCount; ++i) {
        const double cum = stats_.get(static_cast<Event>(i));
        row[i] =
            obs::TimeSeriesRecorder::fit_delta(telemetry_prev_[i], cum);
        telemetry_prev_[i] = cum;
    }
    const double cum_user = stats_.user_instructions;
    row[kEventCount] = obs::TimeSeriesRecorder::fit_delta(
        telemetry_prev_[kEventCount], cum_user);
    telemetry_prev_[kEventCount] = cum_user;
    const double cum_kernel = stats_.kernel_instructions;
    row[kEventCount + 1] = obs::TimeSeriesRecorder::fit_delta(
        telemetry_prev_[kEventCount + 1], cum_kernel);
    telemetry_prev_[kEventCount + 1] = cum_kernel;

    const double dcycles = row[static_cast<std::size_t>(Event::kCycles)];
    const auto occupancy = [dcycles](double residence, double capacity) {
        if (dcycles <= 0.0)
            return 0.0;
        return std::clamp(residence / dcycles, 0.0, capacity);
    };
    row[kEventCount + 2] =
        dcycles > 0.0 ? static_cast<double>(dops) / dcycles : 0.0;
    row[kEventCount + 3] = occupancy(rob_residence_ - rob_residence_base_,
                                     static_cast<double>(rob_.size()));
    row[kEventCount + 4] = occupancy(rs_residence_ - rs_residence_base_,
                                     static_cast<double>(rs_.size()));
    row[kEventCount + 5] =
        occupancy(load_residence_ - load_residence_base_,
                  static_cast<double>(load_buf_.size()));
    row[kEventCount + 6] =
        occupancy(store_residence_ - store_residence_base_,
                  static_cast<double>(store_buf_.size()));
    rob_residence_base_ = rob_residence_;
    rs_residence_base_ = rs_residence_;
    load_residence_base_ = load_residence_;
    store_residence_base_ = store_residence_;

    telemetry_->add_row(telemetry_last_op_ - op_baseline_, dops,
                        row.data());
    telemetry_last_op_ = op_index_;
    telemetry_next_op_ = final_flush ? ~std::uint64_t{0}
                                     : op_index_ + telemetry_interval_;
}

void
Core::finish_observation()
{
    if (telemetry_ != nullptr) {
        telemetry_tick(true);
        std::vector<double> totals(kEventCount + 7, 0.0);
        for (std::size_t i = 0; i < kEventCount; ++i)
            totals[i] = stats_.get(static_cast<Event>(i));
        totals[kEventCount] = stats_.user_instructions;
        totals[kEventCount + 1] = stats_.kernel_instructions;
        const double cycles =
            stats_.get(Event::kCycles);
        const auto occupancy = [cycles](double residence, double cap) {
            if (cycles <= 0.0)
                return 0.0;
            return std::clamp(residence / cycles, 0.0, cap);
        };
        totals[kEventCount + 2] =
            cycles > 0.0
                ? static_cast<double>(op_index_ - op_baseline_) / cycles
                : 0.0;
        totals[kEventCount + 3] =
            occupancy(rob_residence_, static_cast<double>(rob_.size()));
        totals[kEventCount + 4] =
            occupancy(rs_residence_, static_cast<double>(rs_.size()));
        totals[kEventCount + 5] = occupancy(
            load_residence_, static_cast<double>(load_buf_.size()));
        totals[kEventCount + 6] = occupancy(
            store_residence_, static_cast<double>(store_buf_.size()));
        telemetry_->set_totals(totals);
        telemetry_ = nullptr;
        telemetry_next_op_ = ~std::uint64_t{0};
    }
    if (trace_ != nullptr)
        close_segment_span(trace_->now_us());
}

void
Core::set_trace(obs::TraceWriter* trace, std::uint64_t tid)
{
    trace_ = trace;
    trace_tid_ = tid;
}

void
Core::begin_sample_segment(trace::SampleSegment segment)
{
    if (trace_ == nullptr)
        return;
    const double now = trace_->now_us();
    close_segment_span(now);
    cur_segment_ = static_cast<int>(segment);
    segment_start_us_ = now;
}

void
Core::close_segment_span(double now_us)
{
    if (cur_segment_ < 0)
        return;
    static constexpr const char* kSegmentNames[] = {"warmup", "skip",
                                                    "warm", "window"};
    trace_->complete(kSegmentNames[cur_segment_], "sampling",
                     obs::TraceWriter::kHostPid, trace_tid_,
                     segment_start_us_, now_us - segment_start_us_);
    cur_segment_ = -1;
}

double
Core::ipc() const
{
    const double cycles = last_retire_ - cycle_baseline_;
    const double ops = static_cast<double>(op_index_ - op_baseline_);
    return cycles > 0.0 ? ops / cycles : 0.0;
}

double
Core::branch_misprediction_ratio() const
{
    return branch_.misprediction_ratio();
}

}  // namespace dcb::cpu
