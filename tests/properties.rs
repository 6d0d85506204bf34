//! Property-based invariants across the stack: random codelets through
//! the compiler and the machine, random observation matrices through the
//! clustering.

use fgbs::clustering::{
    elbow_k, linkage, medoid, normalize, within_variance_curve, DistanceMatrix, Linkage,
    Partition,
};
use fgbs::genetic::{minimize, minimize_parallel, BitGenome, FitnessCache, GaConfig};
use fgbs::isa::{
    compile, BinOp, BindingBuilder, Codelet, CodeletBuilder, CompileMode, Precision, TargetSpec,
};
use fgbs::machine::{Arch, Machine, PARK_SCALE};
use fgbs::matrix::Matrix;
use fgbs::pool::WorkPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random but well-formed streaming codelet: 1-D loop, loads with
/// strides in {0, 1, -1}, one store or reduction.
fn codelet_strategy() -> impl Strategy<Value = (Codelet, u64)> {
    let stride = prop_oneof![Just(0i64), Just(1i64), Just(-1i64)];
    (
        proptest::collection::vec(stride, 1..4),
        any::<bool>(),
        prop_oneof![Just(Precision::F32), Just(Precision::F64)],
        512u64..4096,
    )
        .prop_map(|(strides, reduce, prec, n)| {
            let mut b = CodeletBuilder::new("rand", "prop");
            for i in 0..strides.len() {
                b = b.array(&format!("in{i}"), prec);
            }
            b = b.array("out", prec).param_loop("n");
            let strides2 = strides.clone();
            let c = if reduce {
                b.update_acc("s", BinOp::Add, move |eb| {
                    let mut e = eb.constant(1.0);
                    for (i, &s) in strides2.iter().enumerate() {
                        // Reversed operands need an in-bounds start.
                        let e2 = if s >= 0 {
                            eb.load(&format!("in{i}"), &[s])
                        } else {
                            eb.load_expr(
                                &format!("in{i}"),
                                vec![fgbs::isa::AffineExpr::lit(-1)],
                                fgbs::isa::AffineExpr::new(-1, 1),
                            )
                        };
                        e = e * e2;
                    }
                    e
                })
                .build()
            } else {
                b.store("out", &[1], move |eb| {
                    let mut e = eb.constant(0.5);
                    for (i, &s) in strides2.iter().enumerate() {
                        let e2 = if s >= 0 {
                            eb.load(&format!("in{i}"), &[s])
                        } else {
                            eb.load_expr(
                                &format!("in{i}"),
                                vec![fgbs::isa::AffineExpr::lit(-1)],
                                fgbs::isa::AffineExpr::new(-1, 1),
                            )
                        };
                        e = e + e2;
                    }
                    e
                })
                .build()
            };
            (c, n)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_kernels_are_sane((codelet, _n) in codelet_strategy()) {
        for mode in [CompileMode::InApp, CompileMode::Standalone] {
            let k = compile(&codelet, &TargetSpec::sse128(), mode);
            prop_assert!(k.insts_per_iter() > 0.0);
            prop_assert!(k.flops_per_iter() >= 0.0);
            let r = k.vector_ratio_fp();
            prop_assert!((0.0..=1.0).contains(&r), "ratio {r}");
            for inst in &k.insts {
                prop_assert!(inst.weight >= 0.0);
                prop_assert!(inst.lanes >= 1);
            }
            // Scalar targets never vectorize.
            let ks = compile(&codelet, &TargetSpec::scalar(), mode);
            prop_assert_eq!(ks.vector_ratio_fp(), 0.0);
        }
    }

    #[test]
    fn machine_runs_are_deterministic_and_consistent((codelet, n) in codelet_strategy()) {
        let arch = Arch::nehalem().scaled(PARK_SCALE);
        let kernel = compile(&codelet, &arch.target(), CompileMode::InApp);
        let mut bb = BindingBuilder::new(4096);
        for _ in 0..codelet.arrays.len() {
            bb = bb.vector(n, 8);
        }
        let binding = bb.param(n).build_for(&codelet);

        let mut m1 = Machine::new(arch.clone());
        let a = m1.run(&kernel, &binding);
        let mut m2 = Machine::new(arch.clone());
        let b = m2.run(&kernel, &binding);
        prop_assert_eq!(&a, &b, "same kernel+binding must reproduce exactly");

        prop_assert!(a.cycles > 0.0);
        prop_assert_eq!(a.counters.iterations, n as f64);
        prop_assert_eq!(a.counters.iterations, binding.iterations(&codelet) as f64);
        // Cache accounting: hits + misses at L1 equals total line touches.
        let l1 = a.counters.cache_hits[0] + a.counters.cache_misses[0];
        prop_assert!(l1 > 0);
        // Deeper levels see at most the misses of the level above.
        for lvl in 1..a.counters.cache_hits.len() {
            let deeper = a.counters.cache_hits[lvl] + a.counters.cache_misses[lvl];
            prop_assert_eq!(deeper, a.counters.cache_misses[lvl - 1]);
        }
        // A second, warm invocation is never slower.
        let warm = m1.run(&kernel, &binding);
        prop_assert!(warm.cycles <= a.cycles * 1.0001);
    }

    #[test]
    fn clustering_invariants(
        data in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, 4),
            3..20,
        )
    ) {
        let data = Matrix::from_rows(&data);
        let norm = normalize(&data);
        let d = DistanceMatrix::euclidean(&norm);
        let dendro = linkage(&d, Linkage::Ward);
        let n = data.nrows();

        let curve = within_variance_curve(&norm, &dendro, n);
        // W is monotone non-increasing and hits ~0 at K = n.
        for w in curve.windows(2) {
            prop_assert!(w[1].1 <= w[0].1 + 1e-9);
        }
        prop_assert!(curve.last().unwrap().1.abs() < 1e-9);
        let k = elbow_k(&curve);
        prop_assert!(k >= 1 && k <= n);

        for kk in 1..=n {
            let p = dendro.cut(kk);
            prop_assert_eq!(p.k(), kk);
            prop_assert_eq!(p.len(), n);
            // Every cluster non-empty; medoid is a member.
            for c in 0..kk {
                let members = p.members(c);
                prop_assert!(!members.is_empty());
                let m = medoid(&norm, &p, c, &[]).expect("eligible members exist");
                prop_assert!(members.contains(&m));
            }
        }
    }

    #[test]
    fn distance_matrix_is_symmetric_with_zero_diagonal(
        data in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, 5),
            2..20,
        )
    ) {
        let data = Matrix::from_rows(&data);
        let d = DistanceMatrix::euclidean(&data);
        for i in 0..data.nrows() {
            prop_assert_eq!(d.get(i, i), 0.0);
            for j in 0..data.nrows() {
                prop_assert_eq!(d.get(i, j).to_bits(), d.get(j, i).to_bits());
                prop_assert!(d.get(i, j) >= 0.0);
            }
        }
    }

    #[test]
    fn pooled_distance_matrix_preserves_partitions(
        data in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, 6),
            4..24,
        )
    ) {
        // Determinism regression: a distance matrix built on the pool must
        // be bitwise identical to the serial one, and therefore produce
        // identical cluster partitions at every cut.
        let data = Matrix::from_rows(&data);
        let norm = normalize(&data);
        let serial = DistanceMatrix::euclidean(&norm);
        for threads in [2usize, 8] {
            let pooled = DistanceMatrix::euclidean_with(&norm, &WorkPool::new(threads));
            prop_assert_eq!(&serial, &pooled, "threads={}", threads);
            let ds = linkage(&serial, Linkage::Ward);
            let dp = linkage(&pooled, Linkage::Ward);
            for k in 1..=data.nrows().min(6) {
                prop_assert_eq!(ds.cut(k).assignments(), dp.cut(k).assignments());
            }
        }
    }

    #[test]
    fn partition_is_invariant_under_codelet_reordering(
        (data, pseed) in (
            proptest::collection::vec(
                proptest::collection::vec(-10.0f64..10.0, 4),
                4..16,
            ),
            any::<u64>(),
        )
    ) {
        // Clustering depends on pairwise geometry, not input order: permute
        // the rows, cluster, map the labels back — the partition (compared
        // in canonical first-occurrence form) must not change, and every
        // medoid must still belong to its own cluster.
        let n = data.len();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(pseed);
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let permuted: Vec<Vec<f64>> = perm.iter().map(|&p| data[p].clone()).collect();
        let data = Matrix::from_rows(&data);
        let permuted = Matrix::from_rows(&permuted);

        let t0 = linkage(&DistanceMatrix::euclidean(&data), Linkage::Ward);
        let t1 = linkage(&DistanceMatrix::euclidean(&permuted), Linkage::Ward);
        for k in [2usize, 3] {
            if k > n {
                continue;
            }
            let p0 = t0.cut(k);
            let p1 = t1.cut(k);
            let mut back = vec![0usize; n];
            for (pos, &orig) in perm.iter().enumerate() {
                back[orig] = p1.assignment(pos);
            }
            let canon0 = Partition::from_labels(p0.assignments());
            let canon1 = Partition::from_labels(&back);
            prop_assert_eq!(canon0.assignments(), canon1.assignments(), "k={}", k);

            for c in 0..k {
                let m = medoid(&data, &p0, c, &[]).expect("non-empty cluster");
                prop_assert!(p0.members(c).contains(&m));
            }
        }
    }

    #[test]
    fn ward_heights_monotone(
        data in proptest::collection::vec(
            proptest::collection::vec(-5.0f64..5.0, 3),
            2..16,
        )
    ) {
        let d = DistanceMatrix::euclidean(&Matrix::from_rows(&data));
        let dendro = linkage(&d, Linkage::Ward);
        let hs: Vec<f64> = dendro.merges().iter().map(|m| m.height).collect();
        for w in hs.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-9, "heights {hs:?}");
        }
    }
}

/// A deterministic, mildly rugged toy objective for the GA determinism
/// regressions: reward genomes whose set bits sum (through a sine) close
/// to a target. No randomness, no shared state — any divergence between
/// the serial and pooled runs is the engine's fault.
fn rugged_fitness(g: &BitGenome) -> f64 {
    let mut acc = 0.0;
    for (i, &b) in g.bits().iter().enumerate() {
        if b {
            acc += ((i as f64) * 0.37).sin();
        }
    }
    (acc - 1.5).abs()
}

/// Determinism regression: for any seed, the parallel GA must reproduce
/// the serial GA byte for byte — best genome, best fitness, the whole
/// per-generation history and the distinct-evaluation count — at every
/// thread count.
#[test]
fn ga_serial_and_parallel_runs_are_bitwise_identical() {
    for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
        let cfg = GaConfig {
            genome_len: 24,
            population: 20,
            generations: 12,
            seed,
            ..GaConfig::default()
        };
        let serial = minimize(&cfg, rugged_fitness);
        for threads in [1usize, 2, 3, 8] {
            let pool = WorkPool::new(threads);
            let par = minimize_parallel(&cfg, &pool, &FitnessCache::new(), rugged_fitness);
            assert_eq!(serial, par, "seed={seed} threads={threads}");
            assert_eq!(
                serial.best_fitness.to_bits(),
                par.best_fitness.to_bits(),
                "fitness bits differ: seed={seed} threads={threads}"
            );
        }
    }
}

/// Different seeds must still disagree (the engine is deterministic, not
/// degenerate), and a shared cache across runs must never change results.
#[test]
fn ga_determinism_is_per_seed_and_cache_transparent() {
    let cfg = GaConfig {
        genome_len: 24,
        population: 20,
        generations: 10,
        seed: 7,
        ..GaConfig::default()
    };
    let other = GaConfig { seed: 8, ..cfg.clone() };
    let a = minimize(&cfg, rugged_fitness);
    let b = minimize(&other, rugged_fitness);
    assert_ne!(a.best, b.best, "distinct seeds should explore differently");

    // A warm cache changes the work done, never the answer.
    let pool = WorkPool::new(4);
    let cache = FitnessCache::new();
    let cold = minimize_parallel(&cfg, &pool, &cache, rugged_fitness);
    let warm = minimize_parallel(&cfg, &pool, &cache, rugged_fitness);
    assert_eq!(cold.best, warm.best);
    assert_eq!(cold.best_fitness.to_bits(), warm.best_fitness.to_bits());
    assert_eq!(cold.history, warm.history);
    assert_eq!(warm.evaluations, 0, "second run is fully memoised");
    assert_eq!(a, cold, "serial and pooled agree on the shared workload");
}

/// The three execution engines must agree on iteration counts: the
/// analytic formula, the functional interpreter and the machine executor.
#[test]
fn iteration_count_consistency_across_engines() {
    use fgbs::isa::{compile, interpret, CompileMode, Memory};
    use fgbs::suites::{nas_suite, nr_suite, Class};

    let arch = Arch::nehalem().scaled(PARK_SCALE);
    let mut checked = 0;
    let mut apps = nr_suite(Class::Test);
    apps.truncate(10);
    apps.extend(nas_suite(Class::Test).into_iter().take(2));
    for app in &apps {
        for (ci, c) in app.codelets.iter().enumerate() {
            let binding = &app.contexts[ci][0];
            let analytic = binding.iterations(c);

            let mut mem = Memory::for_binding(c, binding);
            let interp = interpret(c, binding, &mut mem).expect("in bounds");
            assert_eq!(interp.iterations, analytic, "{}", c.qualified_name());

            let kernel = compile(c, &arch.target(), CompileMode::InApp);
            let mut m = Machine::new(arch.clone());
            let meas = m.run(&kernel, binding);
            assert_eq!(
                meas.counters.iterations, analytic as f64,
                "{}",
                c.qualified_name()
            );
            checked += 1;
        }
    }
    assert!(checked > 20, "checked {checked} codelets");
}

/// Determinism regression for `select`'s simulator fan-outs: the
/// reference runs (one item per application), the wellness micro-runs
/// (one per codelet) and the ground-truth runs (one per target ×
/// application) must come out bitwise identical at 1 and 8 threads.
/// Debug output prints every `f64` in its shortest round-trip form, so
/// equal strings mean equal bits.
#[test]
fn select_fan_outs_are_bitwise_identical_across_thread_counts() {
    use fgbs::core::{
        evaluate_targets, profile_reference, rank_targets, reduce_cached, wellness, KChoice,
        MicroCache, PipelineConfig,
    };
    use fgbs::suites::{nas_suite, Class};

    let apps = nas_suite(Class::Test);
    let targets = Arch::targets_scaled();
    let run = |threads: usize| {
        let cfg = PipelineConfig::default()
            .with_k(KChoice::Elbow { max_k: 24 })
            .with_threads(threads);
        let suite = profile_reference(&apps, &cfg);
        let well = wellness(&suite, &cfg, &MicroCache::new());
        let cache = MicroCache::new();
        let reduced = reduce_cached(&suite, &cfg, &cache);
        let evals = evaluate_targets(&suite, &reduced, &targets, &cache, &cfg);
        let rank = rank_targets(&evals);
        (suite, well, evals, rank)
    };
    let (s1, w1, e1, r1) = run(1);
    let (s8, w8, e8, r8) = run(8);

    assert_eq!(
        format!("{:?}", s1.runs),
        format!("{:?}", s8.runs),
        "reference runs"
    );
    assert_eq!(s1.features, s8.features);
    assert_eq!(format!("{:?}", s1.features), format!("{:?}", s8.features));
    assert_eq!(s1.coverage.to_bits(), s8.coverage.to_bits());
    let tref = |s: &fgbs::core::ProfiledSuite| -> Vec<u64> {
        s.codelets.iter().map(|c| c.tref_cycles.to_bits()).collect()
    };
    assert_eq!(tref(&s1), tref(&s8), "tref_cycles");
    assert_eq!(w1, w8, "wellness");
    assert!(w1.iter().any(|&w| w), "some codelet behaves well");

    assert_eq!(e1.len(), targets.len());
    for (a, b) in e1.iter().zip(&e8) {
        assert_eq!(a.target, b.target);
        assert_eq!(a.outcome.target_runs.len(), apps.len());
        assert_eq!(
            format!("{:?}", a.outcome.predictions),
            format!("{:?}", b.outcome.predictions),
            "{}: predictions",
            a.target
        );
        assert_eq!(
            format!("{:?}", a.outcome.target_runs),
            format!("{:?}", b.outcome.target_runs),
            "{}: target runs",
            a.target
        );
        assert_eq!(
            format!("{:?}", a.outcome.rep_seconds),
            format!("{:?}", b.outcome.rep_seconds),
            "{}: representative seconds",
            a.target
        );
        assert_eq!(a.geomean.0.to_bits(), b.geomean.0.to_bits(), "{}", a.target);
        assert_eq!(a.geomean.1.to_bits(), b.geomean.1.to_bits(), "{}", a.target);
    }
    assert_eq!(format!("{r1:?}"), format!("{r8:?}"), "rank");
}
