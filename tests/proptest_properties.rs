//! Property-based tests (proptest) over the core data structures and the
//! end-to-end simulator: random inputs, structural invariants.

use predictive_prefetch::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The simulator satisfies its conservation laws on arbitrary block
    /// streams, for every policy and tiny-to-small cache sizes.
    #[test]
    fn simulator_conservation_on_random_traces(
        blocks in proptest::collection::vec(0u64..64, 1..400),
        cache in 1usize..64,
        policy_idx in 0usize..8,
    ) {
        let policies = [
            PolicySpec::NoPrefetch,
            PolicySpec::NextLimit,
            PolicySpec::Tree,
            PolicySpec::TreeNextLimit,
            PolicySpec::TreeLvc,
            PolicySpec::TreeThreshold(0.05),
            PolicySpec::TreeChildren(3),
            PolicySpec::PerfectSelector,
        ];
        let trace = Trace::from_blocks(blocks.clone());
        let r = run_simulation(&trace, &SimConfig::new(cache, policies[policy_idx]));
        let m = &r.metrics;
        prop_assert_eq!(m.refs as usize, blocks.len());
        prop_assert_eq!(m.demand_hits + m.prefetch_hits + m.misses, m.refs);
        prop_assert!(m.prefetch_hits <= m.prefetches_issued);
        prop_assert!(m.miss_rate() >= 0.0 && m.miss_rate() <= 1.0);
    }

    /// The prefetch tree's weights always equal visit counts: the root's
    /// weight equals the number of substrings started, and every node's
    /// children weigh no more than the node itself.
    #[test]
    fn tree_weight_invariants(blocks in proptest::collection::vec(0u64..16, 1..500)) {
        let mut tree = PrefetchTree::new();
        for &b in &blocks {
            tree.record_access(BlockId(b));
        }
        tree.check_invariants();
        prop_assert_eq!(tree.stats().accesses as usize, blocks.len());
        prop_assert!(tree.stats().predictable <= tree.stats().accesses);
    }

    /// Node-limited trees never exceed their limit and survive arbitrary
    /// streams.
    #[test]
    fn tree_node_limit_respected(
        blocks in proptest::collection::vec(0u64..1000, 1..500),
        limit in 2usize..64,
    ) {
        let mut tree = PrefetchTree::with_node_limit(limit);
        for &b in &blocks {
            tree.record_access(BlockId(b));
        }
        tree.check_invariants();
        // The cursor node is pinned, so allow limit + 1.
        prop_assert!(tree.node_count() <= limit + 1,
            "node count {} over limit {}", tree.node_count(), limit);
    }

    /// Candidate probabilities are valid and children sum to at most 1.
    #[test]
    fn candidate_probabilities_valid(blocks in proptest::collection::vec(0u64..8, 2..400)) {
        let mut tree = PrefetchTree::new();
        for &b in &blocks {
            tree.record_access(BlockId(b));
        }
        for max_depth in [1u32, 3] {
            let cands = tree.candidates_below(tree.root(), max_depth, 64);
            let mut depth1_sum = 0.0;
            for c in &cands {
                prop_assert!(c.probability > 0.0 && c.probability <= 1.0 + 1e-9);
                prop_assert!(c.probability <= c.parent_probability + 1e-9);
                prop_assert!(c.depth >= 1 && c.depth <= max_depth);
                if c.depth == 1 {
                    depth1_sum += c.probability;
                }
            }
            prop_assert!(depth1_sum <= 1.0 + 1e-9);
        }
    }

    /// The online stack-distance estimator matches the offline Mattson
    /// oracle on arbitrary streams (undecayed).
    #[test]
    fn stack_distance_matches_oracle(blocks in proptest::collection::vec(0u64..32, 1..300)) {
        let trace = Trace::from_blocks(blocks);
        let oracle = ReuseDistances::compute(&trace);
        let mut online = StackDistanceEstimator::new(1.0);
        for b in trace.blocks() {
            online.record(b.0);
        }
        for n in [1usize, 2, 4, 8, 16, 32, 64] {
            let got = online.hit_rate(n);
            let expect = oracle.hit_rate(n);
            prop_assert!((got - expect).abs() < 1e-9,
                "H({}) online {} vs oracle {}", n, got, expect);
        }
    }

    /// Trace binary round-trip over arbitrary records.
    #[test]
    fn binary_format_round_trips(
        recs in proptest::collection::vec((any::<u64>(), 0u32..100, any::<bool>()), 0..200)
    ) {
        let mut trace = Trace::empty();
        for (b, pid, write) in recs {
            let r = if write { TraceRecord::write(b) } else { TraceRecord::read(b) };
            trace.push(r.with_pid(pid));
        }
        let mut buf = Vec::new();
        predictive_prefetch::trace::io::write_binary(&trace, &mut buf).unwrap();
        let back = predictive_prefetch::trace::io::read_binary(&mut std::io::Cursor::new(&buf[..])).unwrap();
        prop_assert_eq!(back.records(), trace.records());
    }

    /// The cost-benefit equations stay in their analytic ranges for any
    /// valid inputs.
    #[test]
    fn model_outputs_bounded(
        p_b in 0.0001f64..1.0,
        ratio in 0.0001f64..1.0,
        d in 1u32..20,
        s in 0.0f64..16.0,
        t_cpu in 0.1f64..1000.0,
    ) {
        let p_x = (p_b / ratio).min(1.0);
        let params = SystemParams::with_t_cpu(t_cpu);
        let b = predictive_prefetch::core::benefit::benefit(p_b, d, p_x, &params, s);
        prop_assert!(b <= params.t_disk + 1e-9);
        prop_assert!(b >= -params.t_disk - 1e-9);
        let oh = predictive_prefetch::core::overhead::t_oh(p_b, p_x, &params);
        prop_assert!((0.0..=params.t_driver + 1e-12).contains(&oh));
        let c = predictive_prefetch::core::cost::prefetch_eject_cost(p_b, d, 1, &params, s);
        prop_assert!(c >= 0.0 && c.is_finite());
    }

    /// Tree snapshots round-trip arbitrary training streams exactly
    /// (structure, weights, candidate enumeration).
    #[test]
    fn tree_snapshot_round_trips(blocks in proptest::collection::vec(0u64..64, 0..600)) {
        let mut tree = PrefetchTree::new();
        for &b in &blocks {
            tree.record_access(BlockId(b));
        }
        let mut buf = Vec::new();
        tree.write_snapshot(&mut buf).unwrap();
        let back = PrefetchTree::read_snapshot(&mut &buf[..]).unwrap();
        prop_assert_eq!(back.node_count(), tree.node_count());
        prop_assert_eq!(back.weight(back.root()), tree.weight(tree.root()));
        let a = tree.candidates_below(tree.root(), 4, 32);
        let b = back.candidates_below(back.root(), 4, 32);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.block, y.block);
            prop_assert!((x.probability - y.probability).abs() < 1e-12);
        }
        back.check_invariants();
    }

    /// Corrupt tree snapshots never panic: any byte-level mutilation is
    /// either rejected or yields a valid tree (when the mutation lands in
    /// a don't-care position).
    #[test]
    fn tree_snapshot_corruption_is_graceful(
        blocks in proptest::collection::vec(0u64..16, 1..100),
        flip_at in 0usize..200,
        flip_bits in 1u8..=255,
    ) {
        let mut tree = PrefetchTree::new();
        for &b in &blocks {
            tree.record_access(BlockId(b));
        }
        let mut buf = Vec::new();
        tree.write_snapshot(&mut buf).unwrap();
        let idx = flip_at % buf.len();
        buf[idx] ^= flip_bits;
        if let Ok(t) = PrefetchTree::read_snapshot(&mut &buf[..]) {
            // Accepted mutations must still produce a structurally valid
            // tree (check_invariants panics otherwise, failing the test).
            t.check_invariants();
        }
    }

    /// Disk-array completions respect service time and per-disk FIFO under
    /// arbitrary request sequences.
    #[test]
    fn disk_array_fifo_and_service(
        reqs in proptest::collection::vec((0u64..128, 0.0f64..10.0), 1..300),
        num_disks in 1usize..8,
    ) {
        use predictive_prefetch::disk::{DiskArray, DiskArrayConfig, Striping};
        let cfg = DiskArrayConfig {
            num_disks,
            service_ms: 7.0,
            striping: Striping::RoundRobin { stripe_unit: 4 },
        };
        let mut array = DiskArray::new(cfg).unwrap();
        let mut now = 0.0f64;
        let mut last = vec![0.0f64; num_disks];
        for (b, dt) in reqs {
            now += dt;
            let block = BlockId(b);
            let d = cfg.striping.disk_for(block, num_disks);
            let c = array.submit(block, now).unwrap().completion_ms;
            prop_assert!(c >= now + 7.0 - 1e-9);
            prop_assert!(c >= last[d] + 7.0 - 1e-9 || last[d] == 0.0);
            last[d] = c;
        }
        let stats = array.stats();
        prop_assert!(stats.queue_fraction() <= 1.0);
        prop_assert!(stats.mean_utilization() <= 1.0 + 1e-9);
    }

    /// The fault injector's schedule is a pure function of (seed, plan):
    /// two arrays driven identically produce identical outcomes, and a
    /// different seed is allowed to differ (not asserted — just exercised).
    #[test]
    fn fault_schedules_are_deterministic(
        reqs in proptest::collection::vec((0u64..256, 0.0f64..8.0), 1..300),
        num_disks in 1usize..6,
        seed in any::<u64>(),
        rate_millis in 1u32..300,
    ) {
        use predictive_prefetch::disk::{DiskArray, DiskArrayConfig, FaultPlan};
        let cfg = DiskArrayConfig::with_disks(num_disks);
        let plan = FaultPlan::uniform(seed, rate_millis as f64 / 1000.0, cfg.service_ms);
        let mut a = DiskArray::with_faults(cfg, plan).unwrap();
        let mut b = DiskArray::with_faults(cfg, plan).unwrap();
        let mut now = 0.0f64;
        for &(blk, dt) in &reqs {
            now += dt;
            prop_assert_eq!(a.submit(BlockId(blk), now), b.submit(BlockId(blk), now));
        }
        prop_assert_eq!(a.stats(), b.stats());
    }

    /// Same (seed, FaultPlan, trace, policy) → identical SimMetrics, and a
    /// zero fault rate reproduces the fault-free baseline bit for bit.
    #[test]
    fn faulted_simulations_are_deterministic(
        blocks in proptest::collection::vec(0u64..64, 1..300),
        cache in 2usize..64,
        num_disks in 1usize..4,
        seed in any::<u64>(),
        policy_idx in 0usize..3,
        rate_millis in 0u32..200,
    ) {
        let policies = [PolicySpec::NoPrefetch, PolicySpec::Tree, PolicySpec::TreeNextLimit];
        let trace = Trace::from_blocks(blocks);
        let rate = rate_millis as f64 / 1000.0;
        let cfg = SimConfig::new(cache, policies[policy_idx])
            .with_disks(num_disks)
            .with_fault_rate(seed, rate);
        cfg.validate().unwrap();
        let a = run_simulation(&trace, &cfg);
        let b = run_simulation(&trace, &cfg);
        prop_assert_eq!(a.metrics, b.metrics);
        if rate == 0.0 {
            let baseline =
                run_simulation(&trace, &SimConfig::new(cache, policies[policy_idx]).with_disks(num_disks));
            prop_assert_eq!(a.metrics, baseline.metrics);
            prop_assert_eq!(a.metrics.total_faults(), 0);
        }
    }

    /// BufferCache never exceeds capacity and reference outcomes are
    /// consistent with residency, under random operation sequences.
    #[test]
    fn buffer_cache_bounded(
        ops in proptest::collection::vec((0u64..32, 0u8..4), 1..500),
        cap in 1usize..16,
    ) {
        let mut cache = BufferCache::new(cap);
        for (b, op) in ops {
            let block = BlockId(b);
            match op {
                0 => {
                    let resident = cache.contains(block);
                    let outcome = cache.reference(block);
                    use predictive_prefetch::cache::buffer_cache::RefOutcome;
                    prop_assert_eq!(matches!(outcome, RefOutcome::Miss), !resident);
                }
                1 => {
                    if !cache.contains(block) && !cache.is_full() {
                        cache.insert_demand(block);
                    }
                }
                2 => {
                    if !cache.contains(block) && !cache.is_full() {
                        cache.insert_prefetch(block, PrefetchMeta::default());
                    }
                }
                _ => {
                    cache.evict_demand_lru();
                }
            }
            prop_assert!(cache.len() <= cap);
            prop_assert_eq!(cache.len(), cache.demand_len() + cache.prefetch_len());
        }
    }
}
